#include "transport/client.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "channel/record.h"

namespace shs::transport {

namespace {

void poll_or_throw(int fd, short events, std::chrono::milliseconds timeout,
                   const char* what) {
  pollfd pfd{fd, events, 0};
  while (true) {
    const int rc = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
    if (rc > 0) return;  // readable/writable, or HUP — the read sees EOF
    if (rc == 0) {
      throw TransportError(std::string("client: timed out waiting to ") +
                           what);
    }
    if (errno != EINTR) throw TransportError(errno_message("poll"));
  }
}

}  // namespace

Client::Client(ClientOptions options) : options_(std::move(options)) {}

void Client::connect() {
  fd_ = tcp_connect(options_.host, options_.port, options_.connect_timeout,
                    options_.sndbuf, options_.rcvbuf);
}

void Client::adopt_socket(Fd fd) {
  if (options_.sndbuf > 0 || options_.rcvbuf > 0) {
    set_socket_buffers(fd.get(), options_.sndbuf, options_.rcvbuf);
  }
  fd_ = std::move(fd);
}

void Client::send_frame(const service::Frame& frame) {
  if (!fd_.valid()) throw TransportError("client: not connected");
  // Behind any buffered echoes, so frame order on the wire is unchanged.
  append(out_buf_, encode_frame(frame));
  flush();
}

void Client::flush() {
  std::size_t sent = 0;
  while (sent < out_buf_.size()) {
    poll_or_throw(fd_.get(), POLLOUT, options_.io_timeout, "write");
    const ssize_t n =
        ::write(fd_.get(), out_buf_.data() + sent, out_buf_.size() - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
      throw TransportError(errno_message("write"));
    }
  }
  out_buf_.clear();
}

std::optional<service::Frame> Client::recv_frame() {
  if (!fd_.valid()) throw TransportError("client: not connected");
  while (true) {
    if (auto frame = in_buf_.next()) return frame;
    // About to block: the echoes of everything read so far leave in one
    // write, so the server has the whole round before we wait on it.
    flush();
    poll_or_throw(fd_.get(), POLLIN, options_.io_timeout, "read");
    std::uint8_t chunk[16 * 1024];
    const ssize_t n = ::read(fd_.get(), chunk, sizeof(chunk));
    if (n > 0) {
      in_buf_.feed(BytesView(chunk, static_cast<std::size_t>(n)));
    } else if (n == 0) {
      return std::nullopt;  // clean EOF
    } else if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
      throw TransportError(errno_message("read"));
    }
  }
}

void Client::handle(service::Frame frame) {
  if (channel::is_channel_frame(frame)) {
    // Channel records are terminal payload for this client, not session
    // traffic — echoing one back would re-enter the relay fan-out.
    records_.push_back(std::move(frame));
    return;
  }
  if (!is_control(frame)) {
    // The relay: hosted sessions expect their egress looped straight back
    // (written by the next flush()).
    append(out_buf_, encode_frame(frame));
    return;
  }
  switch (static_cast<ControlOp>(frame.round)) {
    case ControlOp::kDone: {
      SessionSummary summary = decode_done(frame);
      pending_.erase(summary.session_id);
      summaries_.push_back(std::move(summary));
      return;
    }
    case ControlOp::kShutdown:
      shutdown_ = true;
      return;
    case ControlOp::kRekey:
      rekeys_.push_back(decode_rekey(frame));
      return;
    default:
      throw ProtocolError("client: unexpected control frame from server");
  }
}

std::uint64_t Client::await_open_reply(std::uint32_t tag) {
  while (true) {
    auto frame = recv_frame();
    if (!frame) {
      throw TransportError("client: server closed during open");
    }
    if (is_control(*frame)) {
      const auto op = static_cast<ControlOp>(frame->round);
      if (op == ControlOp::kOpenOk && frame->position == tag) {
        const std::uint64_t sid = decode_open_ok(*frame);
        pending_.insert(sid);
        return sid;
      }
      if (op == ControlOp::kOpenErr && frame->position == tag) {
        throw ProtocolError("open rejected: " + decode_open_err(*frame));
      }
    }
    handle(std::move(*frame));
  }
}

std::uint64_t Client::open(const OpenRequest& request) {
  return open_raw(encode_open_request(request));
}

AttachInfo Client::attach(std::uint64_t session_id, std::uint32_t position,
                          BytesView token) {
  const std::uint32_t tag = next_tag_++;
  AttachRequest request;
  request.session_id = session_id;
  request.position = position;
  request.token = Bytes(token.begin(), token.end());
  send_frame(make_attach(tag, request));
  while (true) {
    auto frame = recv_frame();
    if (!frame) {
      throw TransportError("client: server closed during attach");
    }
    if (is_control(*frame)) {
      const auto op = static_cast<ControlOp>(frame->round);
      if (op == ControlOp::kAttachOk && frame->position == tag) {
        return decode_attach_ok(*frame);
      }
      if (op == ControlOp::kAttachErr && frame->position == tag) {
        throw ProtocolError("attach rejected: " +
                            decode_attach_err(*frame).second);
      }
    }
    handle(std::move(*frame));
  }
}

void Client::detach(std::uint64_t session_id, std::uint32_t position) {
  send_frame(make_detach(session_id, position));
}

std::vector<service::Frame> Client::take_records() {
  return std::exchange(records_, {});
}

std::vector<RekeyEnvelope> Client::take_rekeys() {
  return std::exchange(rekeys_, {});
}

std::uint64_t Client::open_raw(BytesView payload) {
  const std::uint32_t tag = next_tag_++;
  send_frame(make_open(tag, payload));
  return await_open_reply(tag);
}

std::vector<SessionSummary>& Client::run() {
  while (!pending_.empty() && !shutdown_) {
    auto frame = recv_frame();
    if (!frame) {
      throw TransportError("client: server closed with sessions pending");
    }
    handle(std::move(*frame));
  }
  flush();
  return summaries_;
}

}  // namespace shs::transport
