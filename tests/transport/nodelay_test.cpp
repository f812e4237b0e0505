// TCP_NODELAY on every transport socket: tcp_connect and tcp_listen set
// it, and a socket accepted from such a listener inherits it — which is
// how the server's and the obs endpoint's connections get it. Adopted
// AF_UNIX socketpairs, where the option does not exist, must keep working
// untouched. Option reads only; nothing here is timed.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <chrono>

#include "transport/client.h"
#include "transport/socket.h"

namespace shs::transport {
namespace {

int nodelay_of(int fd) {
  int value = -1;
  socklen_t len = sizeof value;
  EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len), 0)
      << errno_message("getsockopt(TCP_NODELAY)");
  return value;
}

TEST(Nodelay, ListenConnectAndAcceptedSocketsAllSetIt) {
  Fd listener = tcp_listen("127.0.0.1", 0, 4);
  EXPECT_EQ(nodelay_of(listener.get()), 1);

  Fd client = tcp_connect("127.0.0.1", local_port(listener.get()),
                          std::chrono::milliseconds(2000));
  EXPECT_EQ(nodelay_of(client.get()), 1);

  pollfd pfd{listener.get(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 2000), 1) << "connection never became acceptable";
  Fd accepted(::accept4(listener.get(), nullptr, nullptr,
                        SOCK_NONBLOCK | SOCK_CLOEXEC));
  ASSERT_TRUE(accepted.valid()) << errno_message("accept4");
  EXPECT_EQ(nodelay_of(accepted.get()), 1);
}

TEST(Nodelay, AdoptedSocketpairStillCarriesFrames) {
  auto [client_end, peer_end] = stream_socketpair();
  Client client(ClientOptions{});
  client.adopt_socket(std::move(client_end));

  const service::Frame out{7, 1, 2, Bytes{1, 2, 3}};
  client.send_frame(out);
  service::FrameBuffer peer_in;
  std::uint8_t chunk[256];
  while (true) {
    const ssize_t n = ::read(peer_end.get(), chunk, sizeof chunk);
    ASSERT_GT(n, 0) << errno_message("read");
    peer_in.feed(BytesView(chunk, static_cast<std::size_t>(n)));
    if (auto frame = peer_in.next()) {
      EXPECT_EQ(*frame, out);
      break;
    }
  }

  const service::Frame back{7, 2, 0, Bytes{9}};
  const Bytes wire = encode_frame(back);
  ASSERT_EQ(::write(peer_end.get(), wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  const auto got = client.recv_frame();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, back);
}

}  // namespace
}  // namespace shs::transport
