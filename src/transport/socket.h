// Thin POSIX socket layer under the TCP transport: an RAII file
// descriptor and the handful of IPv4 helpers the event loop, server and
// client need. Every helper throws TransportError with errno context
// instead of returning -1, so transport code never checks return codes.
//
// Every TCP socket sets TCP_NODELAY. The handshake is a multi-round
// protocol: each round's frames must reach the peer before the next
// round can start, and with Nagle on, a small write behind an
// unacknowledged one waits out the peer's delayed ACK (~40 ms on Linux)
// once per round. tcp_listen and tcp_connect are the only places that
// create TCP sockets, and Linux copies the option from a listener onto
// the sockets it accepts, so setting it in those two helpers covers
// the server, the obs endpoint, Client and AuthorityClient. Adopted
// sockets are left alone: they are AF_UNIX pairs in the tests, where the
// option does not exist. Without Nagle, each write() becomes its own
// segment, so the writers coalesce instead: Connection queues a burst
// and flushes it with one write, and Client buffers its echoes and
// writes them together before it next blocks on a read.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "common/errors.h"

namespace shs::transport {

/// Owning file descriptor. Move-only; closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

  /// Gives up ownership without closing.
  [[nodiscard]] int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes the held descriptor (if any).
  void reset() noexcept;

 private:
  int fd_ = -1;
};

/// Sets O_NONBLOCK. Throws TransportError.
void set_nonblocking(int fd);

/// Sets SO_SNDBUF / SO_RCVBUF (skips values <= 0). Throws TransportError.
void set_socket_buffers(int fd, int sndbuf, int rcvbuf);

/// Binds and listens on an IPv4 address ("127.0.0.1", "0.0.0.0", ...).
/// port 0 picks an ephemeral port — read it back with local_port(). The
/// returned socket is non-blocking with SO_REUSEADDR and TCP_NODELAY set;
/// sockets accepted from it inherit TCP_NODELAY.
[[nodiscard]] Fd tcp_listen(const std::string& address, std::uint16_t port,
                            int backlog);

/// The port a bound socket ended up on.
[[nodiscard]] std::uint16_t local_port(int fd);

/// Blocking IPv4 connect with a deadline (the returned socket itself is
/// left in blocking mode, with TCP_NODELAY set; callers poll() around
/// reads/writes).
/// sndbuf/rcvbuf <= 0 keep the kernel defaults.
[[nodiscard]] Fd tcp_connect(const std::string& address, std::uint16_t port,
                             std::chrono::milliseconds timeout,
                             int sndbuf = 0, int rcvbuf = 0);

/// A connected AF_UNIX stream pair (both ends blocking), for tests that
/// need a wire without a listener.
[[nodiscard]] std::pair<Fd, Fd> stream_socketpair();

/// "message: strerror(errno)" helper for call sites that add context.
[[nodiscard]] std::string errno_message(const std::string& what);

}  // namespace shs::transport
