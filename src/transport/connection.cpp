#include "transport/connection.h"

#include <unistd.h>

#include <cerrno>
#include <utility>
#include <vector>

namespace shs::transport {

namespace {

void bump(std::atomic<std::uint64_t>* counter, std::uint64_t n) {
  if (counter != nullptr) counter->fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

Connection::Connection(EventLoop& loop, Fd fd, std::uint64_t id,
                       ConnectionLimits limits, Callbacks callbacks,
                       service::ServiceMetrics* metrics,
                       obs::TraceRecorder* trace)
    : loop_(loop),
      fd_(std::move(fd)),
      id_(id),
      limits_(limits),
      callbacks_(std::move(callbacks)),
      metrics_(metrics),
      trace_(trace),
      in_buf_(limits.max_unframed, limits.max_payload) {
  set_nonblocking(fd_.get());
}

void Connection::register_with_loop() {
  interest_ = kLoopRead;
  loop_.add_fd(fd_.get(), interest_,
               [self = shared_from_this()](std::uint32_t events) {
                 self->on_events(events);
               });
  registered_ = true;
}

void Connection::send(Bytes wire) {
  if (closed()) return;
  std::size_t queued = 0;
  {
    const std::lock_guard<std::mutex> lock(out_mu_);
    append(out_buf_, wire);
    queued = out_buf_.size() - out_pos_;
  }
  if (metrics_ != nullptr) metrics_->note_write_queue_depth(queued);
  if (queued > limits_.write_kill) {
    if (trace_ != nullptr) {
      trace_->record(obs::TraceEvent::kBackpressureKill, 0, id_, queued);
    }
    loop_.post([self = shared_from_this()] {
      self->close("write queue exceeded the kill watermark",
                  /*backpressure=*/true);
    });
    return;
  }
  if (!flush_pending_.exchange(true, std::memory_order_acq_rel)) {
    loop_.post([self = shared_from_this()] {
      self->flush_pending_.store(false, std::memory_order_release);
      if (!self->closed()) {
        self->flush_writes();
        self->update_interest();
      }
    });
  }
}

std::size_t Connection::queued_bytes() const {
  const std::lock_guard<std::mutex> lock(out_mu_);
  return out_buf_.size() - out_pos_;
}

void Connection::close(const std::string& reason, bool backpressure) {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  if (registered_) {
    loop_.remove_fd(fd_.get());
    registered_ = false;
  }
  fd_.reset();
  bump(metrics_ != nullptr ? &metrics_->connections_closed : nullptr, 1);
  if (trace_ != nullptr) {
    trace_->record(obs::TraceEvent::kConnClosed, 0, id_,
                   backpressure ? 1 : 0);
  }
  if (backpressure) {
    bump(metrics_ != nullptr ? &metrics_->connections_killed_backpressure
                             : nullptr,
         1);
  }
  if (callbacks_.on_closed) callbacks_.on_closed(*this, reason, backpressure);
}

void Connection::shutdown_when_drained() {
  if (closed()) return;
  draining_ = true;
  flush_writes();
  if (!closed() && queued_bytes() == 0) {
    close("graceful shutdown");
    return;
  }
  update_interest();
}

void Connection::on_events(std::uint32_t events) {
  if (closed()) return;
  if (events & kLoopWrite) {
    flush_writes();
    if (closed()) return;
  }
  if (events & kLoopRead) {
    handle_readable();
    if (closed()) return;
  }
  update_interest();
}

void Connection::handle_readable() {
  if (draining_) return;  // no new work while shutting down
  std::vector<std::uint8_t> chunk(limits_.read_chunk);
  while (!closed()) {
    const ssize_t n = ::read(fd_.get(), chunk.data(), chunk.size());
    if (n > 0) {
      bump(metrics_ != nullptr ? &metrics_->tcp_bytes_in : nullptr,
           static_cast<std::uint64_t>(n));
      try {
        in_buf_.feed(BytesView(chunk.data(), static_cast<std::size_t>(n)));
        while (auto frame = in_buf_.next()) {
          callbacks_.on_frame(*this, std::move(*frame));
          if (closed() || draining_) return;
        }
      } catch (const Error& e) {
        // Malformed stream, FrameBuffer overflow, or a protocol violation
        // surfaced by on_frame: the stream is unrecoverable.
        close(e.what());
        return;
      }
      if (static_cast<std::size_t>(n) < chunk.size()) return;  // drained
      // A full chunk may mean more is buffered — but stop early if the
      // frames we just dispatched backed up the write queue.
      if (queued_bytes() > limits_.write_pause) return;
    } else if (n == 0) {
      close("peer closed the connection");
      return;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return;
    } else if (errno != EINTR) {
      close(errno_message("read"));
      return;
    }
  }
}

void Connection::flush_writes() {
  const std::lock_guard<std::mutex> lock(out_mu_);
  while (out_pos_ < out_buf_.size()) {
    const ssize_t n = ::write(fd_.get(), out_buf_.data() + out_pos_,
                              out_buf_.size() - out_pos_);
    if (n > 0) {
      out_pos_ += static_cast<std::size_t>(n);
      bump(metrics_ != nullptr ? &metrics_->tcp_bytes_out : nullptr,
           static_cast<std::uint64_t>(n));
      bump(metrics_ != nullptr ? &metrics_->tcp_writes : nullptr, 1);
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno != EINTR) {
      // Peer reset mid-write. Close outside the lock: on_closed may call
      // back into queued_bytes().
      const std::string reason = errno_message("write");
      out_buf_.clear();
      out_pos_ = 0;
      loop_.post([self = shared_from_this(), reason] { self->close(reason); });
      return;
    }
  }
  if (out_pos_ == out_buf_.size()) {
    out_buf_.clear();
    out_pos_ = 0;
    if (draining_) {
      loop_.post([self = shared_from_this()] {
        if (!self->closed() && self->queued_bytes() == 0) {
          self->close("graceful shutdown");
        }
      });
    }
  } else if (out_pos_ >= out_buf_.size() / 2) {
    // Reclaim the written prefix so long-lived streams stay compact.
    out_buf_.erase(out_buf_.begin(),
                   out_buf_.begin() + static_cast<std::ptrdiff_t>(out_pos_));
    out_pos_ = 0;
  }
}

void Connection::update_interest() {
  if (closed() || !registered_) return;
  const std::size_t queued = queued_bytes();
  if (!paused_ && queued > limits_.write_pause) {
    paused_ = true;
    if (trace_ != nullptr) {
      trace_->record(obs::TraceEvent::kBackpressurePause, 0, id_, queued);
    }
  } else if (paused_ && queued <= limits_.write_pause / 2) {
    paused_ = false;
    if (trace_ != nullptr) {
      trace_->record(obs::TraceEvent::kBackpressureResume, 0, id_, queued);
    }
  }
  std::uint32_t interest = 0;
  if (!paused_ && !draining_) interest |= kLoopRead;
  if (queued > 0) interest |= kLoopWrite;
  if (interest != interest_) {
    interest_ = interest;
    loop_.set_interest(fd_.get(), interest);
  }
}

}  // namespace shs::transport
