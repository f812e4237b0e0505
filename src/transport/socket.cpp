#include "transport/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace shs::transport {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw TransportError(errno_message(what));
}

void set_nodelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) < 0) {
    throw_errno("setsockopt(TCP_NODELAY)");
  }
}

sockaddr_in make_addr(const std::string& address, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    throw TransportError("not an IPv4 address: " + address);
  }
  return addr;
}

}  // namespace

std::string errno_message(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

void Fd::reset() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

void set_socket_buffers(int fd, int sndbuf, int rcvbuf) {
  if (sndbuf > 0 &&
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof sndbuf) < 0) {
    throw_errno("setsockopt(SO_SNDBUF)");
  }
  if (rcvbuf > 0 &&
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf) < 0) {
    throw_errno("setsockopt(SO_RCVBUF)");
  }
}

Fd tcp_listen(const std::string& address, std::uint16_t port, int backlog) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw_errno("socket");
  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) < 0) {
    throw_errno("setsockopt(SO_REUSEADDR)");
  }
  set_nodelay(fd.get());  // inherited by every accept()ed socket
  const sockaddr_in addr = make_addr(address, port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0) {
    throw_errno("bind " + address + ":" + std::to_string(port));
  }
  if (::listen(fd.get(), backlog) < 0) throw_errno("listen");
  set_nonblocking(fd.get());
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

Fd tcp_connect(const std::string& address, std::uint16_t port,
               std::chrono::milliseconds timeout, int sndbuf, int rcvbuf) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw_errno("socket");
  set_socket_buffers(fd.get(), sndbuf, rcvbuf);
  set_nodelay(fd.get());
  const sockaddr_in addr = make_addr(address, port);

  // Connect non-blocking so the deadline is enforceable, then restore
  // blocking mode for the caller.
  set_nonblocking(fd.get());
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) < 0) {
    if (errno != EINPROGRESS) {
      throw_errno("connect " + address + ":" + std::to_string(port));
    }
    pollfd pfd{fd.get(), POLLOUT, 0};
    const int n = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
    if (n < 0) throw_errno("poll(connect)");
    if (n == 0) {
      throw TransportError("connect " + address + ":" + std::to_string(port) +
                           ": timed out");
    }
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
      throw_errno("getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      errno = err;
      throw_errno("connect " + address + ":" + std::to_string(port));
    }
  }
  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK) < 0) {
    throw_errno("fcntl(blocking)");
  }
  return fd;
}

std::pair<Fd, Fd> stream_socketpair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) < 0) {
    throw_errno("socketpair");
  }
  return {Fd(fds[0]), Fd(fds[1])};
}

}  // namespace shs::transport
