// Blocking TCP client for the rendezvous transport.
//
// The server hosts every participant's crypto; a Client is a thin relay.
// After connect(), open() asks the server to start a hosted session
// (kOpen/kOpenOk) and run() loops: each inbound session frame is echoed
// back verbatim — exactly the loopback the RendezvousService's egress
// expects — until every opened session has reported kDone (or the server
// announced kShutdown). Because the client never alters a payload, the
// transcripts the service accumulates are byte-identical to the serial
// driver's; the e2e tests assert precisely that.
//
// Echoes are buffered and written together just before the client would
// block on a read, so frames that arrive together are echoed in one
// write (one segment under TCP_NODELAY). send_frame writes behind any buffered
// echoes, so frame order on the wire is unchanged, and run() returns
// with none buffered.
//
// One Client is one socket and is strictly single-threaded. All reads
// poll() against ClientOptions::io_timeout, so a dead server surfaces as
// TransportError instead of a hang.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "service/frame.h"
#include "transport/socket.h"
#include "transport/wire.h"

namespace shs::transport {

struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::chrono::milliseconds connect_timeout{2000};
  /// Deadline for any single blocking read or write.
  std::chrono::milliseconds io_timeout{10000};
  /// SO_SNDBUF / SO_RCVBUF; <= 0 keeps the kernel defaults (tests shrink
  /// these to force partial writes).
  int sndbuf = 0;
  int rcvbuf = 0;
};

class Client {
 public:
  explicit Client(ClientOptions options);

  /// Connects (or adopts an already-connected socket — the socketpair
  /// tests' entry point; options.host/port are ignored then).
  void connect();
  void adopt_socket(Fd fd);

  [[nodiscard]] bool connected() const noexcept { return fd_.valid(); }

  /// Opens one hosted session and returns its server-assigned id. Frames
  /// for other sessions arriving meanwhile are relayed as usual. Throws
  /// ProtocolError with the server's message if the open is rejected.
  std::uint64_t open(const OpenRequest& request);
  std::uint64_t open_raw(BytesView payload);

  /// Binds this connection to (session_id, position) on the server's
  /// channel relay. Returns the clique info on success; throws
  /// ProtocolError with the server's message on rejection. Channel
  /// records arriving while waiting are stashed in the inbox.
  AttachInfo attach(std::uint64_t session_id, std::uint32_t position,
                    BytesView token);
  /// Tells the relay to stop fanning records to (session_id, position).
  void detach(std::uint64_t session_id, std::uint32_t position);

  /// Channel records received so far (relay fan-in), in arrival order.
  /// Draining the inbox transfers ownership to the caller.
  [[nodiscard]] std::vector<service::Frame> take_records();

  /// Authority rekey broadcasts received so far (epoch order — the
  /// server serializes fan-out per connection). Draining transfers
  /// ownership; most callers use AuthorityClient instead, but a session
  /// client that also subscribed must not choke on the feed.
  [[nodiscard]] std::vector<RekeyEnvelope> take_rekeys();

  /// Relays until every session opened on this client is done or the
  /// server announces shutdown. Returns the summaries collected so far
  /// (one per completed session, in completion order).
  std::vector<SessionSummary>& run();

  [[nodiscard]] const std::vector<SessionSummary>& summaries() const noexcept {
    return summaries_;
  }
  [[nodiscard]] std::size_t sessions_pending() const noexcept {
    return pending_.size();
  }
  [[nodiscard]] bool server_shutdown() const noexcept { return shutdown_; }

  /// Low-level access (used by the fault-injection tests): blocking send
  /// of one frame / receive of the next frame, both bounded by io_timeout.
  /// send_frame first writes any buffered echoes (in the same write);
  /// recv_frame flushes them before it blocks and returns nullopt on
  /// clean EOF.
  void send_frame(const service::Frame& frame);
  std::optional<service::Frame> recv_frame();

  void close() noexcept { fd_.reset(); }

 private:
  /// Handles one inbound frame: a session frame's echo is appended to
  /// out_buf_, a channel record or rekey goes to its inbox, kDone and
  /// kShutdown update the client's state.
  void handle(service::Frame frame);
  std::uint64_t await_open_reply(std::uint32_t tag);
  /// Writes out_buf_ in full (blocking, bounded by io_timeout).
  void flush();

  ClientOptions options_;
  Fd fd_;
  service::FrameBuffer in_buf_;
  Bytes out_buf_;  // echoes not yet written
  std::uint32_t next_tag_ = 1;
  std::unordered_set<std::uint64_t> pending_;
  std::vector<SessionSummary> summaries_;
  std::vector<service::Frame> records_;  // channel-record inbox
  std::vector<RekeyEnvelope> rekeys_;    // authority-broadcast inbox
  bool shutdown_ = false;
};

}  // namespace shs::transport
