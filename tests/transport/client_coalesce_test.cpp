// Client echo coalescing over a socketpair: the test plays the server.
// Relay frames arriving in one chunk are echoed back byte-identical and
// in arrival order, nothing stays buffered once run() returns, and a
// send_frame issued while echoes are buffered reaches the peer behind
// them.
#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <vector>

#include "transport/client.h"
#include "transport/socket.h"
#include "transport/wire.h"

namespace shs::transport {
namespace {

constexpr std::uint64_t kSid = 42;

void write_all(int fd, BytesView wire) {
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::write(fd, wire.data() + sent, wire.size() - sent);
    ASSERT_GT(n, 0) << errno_message("write");
    sent += static_cast<std::size_t>(n);
  }
}

/// Reads exactly `n` bytes from `fd`, failing instead of hanging.
Bytes read_exact(int fd, std::size_t n) {
  Bytes out(n);
  std::size_t got = 0;
  while (got < n) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 5000) != 1) {
      ADD_FAILURE() << "peer starved after " << got << " of " << n
                    << " bytes";
      out.resize(got);
      return out;
    }
    const ssize_t r = ::read(fd, out.data() + got, n - got);
    if (r <= 0) {
      ADD_FAILURE() << errno_message("read");
      out.resize(got);
      return out;
    }
    got += static_cast<std::size_t>(r);
  }
  return out;
}

bool readable_now(int fd) {
  pollfd pfd{fd, POLLIN, 0};
  return ::poll(&pfd, 1, 0) == 1;
}

/// One round of relay frames for kSid, distinct per (round, position).
std::vector<service::Frame> relay_round(std::uint32_t round) {
  std::vector<service::Frame> frames;
  for (std::uint32_t pos = 0; pos < 4; ++pos) {
    Bytes payload(3 + pos * 5, static_cast<std::uint8_t>(round * 16 + pos));
    frames.push_back(service::Frame{kSid, round, pos, std::move(payload)});
  }
  return frames;
}

Bytes encode_all(const std::vector<service::Frame>& frames) {
  Bytes wire;
  for (const auto& f : frames) append(wire, encode_frame(f));
  return wire;
}

TEST(ClientCoalesce, EchoesKeepArrivalOrderAndFollowingSendsQueueBehind) {
  auto [client_end, peer] = stream_socketpair();
  Client client(ClientOptions{});
  client.adopt_socket(std::move(client_end));

  // Round 1 arrives in the same chunk as the open reply, so open()
  // returns with its echoes buffered.
  const std::vector<service::Frame> round1 = relay_round(1);
  Bytes chunk = encode_all(round1);
  append(chunk, encode_frame(make_open_ok(/*tag=*/1, kSid)));
  write_all(peer.get(), chunk);
  const Bytes open_payload{0xAA, 0xBB};
  ASSERT_EQ(client.open_raw(open_payload), kSid);

  // The open went out first; the echoes are still buffered.
  const Bytes open_wire = encode_frame(make_open(1, open_payload));
  EXPECT_EQ(read_exact(peer.get(), open_wire.size()), open_wire);
  EXPECT_FALSE(readable_now(peer.get()));

  // A send issued now lands behind the buffered echoes.
  const service::Frame detach = make_detach(kSid, 3);
  client.send_frame(detach);
  Bytes expected = encode_all(round1);
  append(expected, encode_frame(detach));
  EXPECT_EQ(read_exact(peer.get(), expected.size()), expected);
  EXPECT_FALSE(readable_now(peer.get()));

  // Round 2 and the session's kDone arrive in one chunk: run() echoes the
  // round byte-identical, in order, and returns with nothing buffered.
  const std::vector<service::Frame> round2 = relay_round(2);
  SessionSummary summary;
  summary.session_id = kSid;
  summary.confirmed = {4, 4, 4, 4};
  chunk = encode_all(round2);
  append(chunk, encode_frame(make_done(summary)));
  write_all(peer.get(), chunk);
  const auto& summaries = client.run();
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0], summary);
  EXPECT_EQ(client.sessions_pending(), 0u);
  // Nothing stays buffered: the whole round is on the wire already.
  const Bytes round2_wire = encode_all(round2);
  EXPECT_EQ(read_exact(peer.get(), round2_wire.size()), round2_wire);
  EXPECT_FALSE(readable_now(peer.get()));
}

}  // namespace
}  // namespace shs::transport
