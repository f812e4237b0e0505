// RendezvousService — hosts many concurrent GCD handshake sessions over
// the framed wire protocol, with deadlines and service metrics.
//
// The service owns the HandshakeParticipant state machines handed to
// open_session() and drives them through a SessionManager: frames arrive
// (handle_frame / feed), pump() advances every session whose round
// closed, expire_stalled() reaps sessions the wire abandoned. Because
// parties only ever see complete round vectors — exactly what
// net::run_protocol delivers — a session's outcome, session key and
// transcript are byte-identical to a serial run_handshake() of the same
// participants, whatever interleaving the wire imposes across sessions.
//
// Terminal sessions classify as:
//   confirmed  every party completed and some clique of >= 2 formed
//   failed     every party completed, but nobody confirmed a partner
//   expired    the deadline hit first; outcomes() then reports synthetic
//              per-party outcomes with FailureReason::kTimeout (local
//              bookkeeping only — nothing about the timeout ever goes on
//              the wire, so the paper's silent-failure property holds)
//
// Metrics: every lifecycle event, frame and per-phase latency lands in a
// ServiceMetrics block exportable as JSON (schema: DESIGN.md §8).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/handshake.h"
#include "obs/health.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "service/batch_verify.h"
#include "service/frame.h"
#include "service/metrics.h"
#include "service/session.h"

namespace shs::service {

struct ServiceOptions {
  /// pump() parallelism across ready sessions; 1 = serial, 0 = hardware.
  std::size_t threads = 1;
  /// Borrowed time source; null = process steady clock.
  Clock* clock = nullptr;
  /// Stall budget before expire_stalled() reaps a session.
  std::chrono::milliseconds session_deadline{30000};
  /// Borrowed per-edge delivery adversary (PR-2 fault library); null =
  /// reliable wire.
  net::Adversary* adversary = nullptr;
  /// Borrowed transport for outgoing frames; null = loop frames straight
  /// back in (fully hosted sessions: open_session() + pump() completes).
  FrameSink* egress = nullptr;
  /// Observer fired once per session when it reaches kDone or kExpired,
  /// after outcomes() became available. Runs inside pump() /
  /// expire_stalled() on the calling thread with no service locks held;
  /// it must not call back into pump(), expire_stalled() or close()
  /// (defer GC to the caller). The TCP transport uses this to push DONE
  /// notifications to the owning socket.
  std::function<void(std::uint64_t sid, SessionState final_state)> on_terminal;
  /// Borrowed flight recorder; null = no tracing. Forwarded to the
  /// session manager (frame and round events) and used by the service for
  /// phase-completion spans and terminal events carrying per-session
  /// modexp attribution.
  obs::TraceRecorder* trace = nullptr;
  /// Borrowed structured logger; null = no logging. Session lifecycle at
  /// info, per-frame traffic at debug.
  obs::Logger* logger = nullptr;
  /// Cross-session batched verification (service/batch_verify.h): Phase-III
  /// group-signature checks from all hosted sessions fold into shared
  /// multi-exponentiations. Off = every session verifies inline.
  /// Verdicts are identical either way (failed folds bisect down to
  /// individual checks), so this is purely a throughput knob.
  bool batch_verify = true;
  /// Unique pending verify jobs that trigger an immediate batch flush.
  std::size_t batch_max_pending = 256;
  /// Oldest-job age at which poll_batch() flushes (deadline policy).
  std::chrono::milliseconds batch_max_delay{5};
  /// Seed for the batch fold coefficients; empty = a process-unique
  /// test/bench seed. Deployments should pass real entropy — see the
  /// soundness notes in service/batch_verify.h.
  Bytes batch_seed;
  /// Session-id striping (forwarded to the SessionManager): the first id
  /// this service hands out and the step between consecutive ids. A
  /// sharded transport gives shard i of N {i + 1, N}, making ids
  /// process-unique with the home shard recoverable as (sid - 1) % N.
  /// Defaults preserve the classic dense 1, 2, 3, ... sequence.
  std::uint64_t first_sid = 1;
  std::uint64_t sid_stride = 1;
  /// Borrowed health plane (obs/health.h); both null = no health
  /// tracking. The service records handshake-completion SLO samples and
  /// forwards both pointers (with slo_shard as the shard index) to its
  /// BatchVerifier for flush heartbeats and batch-wait samples.
  obs::SloTracker* slo = nullptr;
  obs::HealthMonitor* health = nullptr;
  std::size_t slo_shard = 0;
};

class RendezvousService {
 public:
  explicit RendezvousService(ServiceOptions options = {});
  ~RendezvousService();
  RendezvousService(const RendezvousService&) = delete;
  RendezvousService& operator=(const RendezvousService&) = delete;

  /// Takes ownership of one session's participants (position = vector
  /// index) and queues it; pump() does all crypto. Returns the session id
  /// every frame of this session carries.
  std::uint64_t open_session(
      std::vector<std::unique_ptr<core::HandshakeParticipant>> parties);

  /// Ingests one decoded frame. Thread-safe.
  FrameDisposition handle_frame(Frame frame);

  /// Ingests a raw stream chunk through a FrameBuffer (one logical
  /// inbound stream); returns frames ingested. Throws CodecError when the
  /// stream is malformed (then drop the connection). Thread-safe.
  std::size_t feed(BytesView chunk);

  /// Advances every ready session until none remains ready; returns queue
  /// entries processed.
  std::size_t pump();

  /// Expires sessions stalled past the deadline; returns how many.
  std::size_t expire_stalled();

  /// Throws ProtocolError for unknown ids.
  [[nodiscard]] SessionState state(std::uint64_t sid) const;

  /// Per-position outcomes of a done/expired session (throws
  /// ProtocolError while it is still running). For expired sessions these
  /// are synthetic: completed = false, every reason = kTimeout.
  [[nodiscard]] std::vector<core::HandshakeOutcome> outcomes(
      std::uint64_t sid) const;

  /// GC: frees a done/expired session's participants and bookkeeping.
  /// Returns false while the session is live (or the id is unknown).
  bool close(std::uint64_t sid);

  [[nodiscard]] std::size_t active_sessions() const;
  /// Live-session introspection rows (ids, enums and ages only) for the
  /// GET /sessions surface. Thread-safe passthrough to the manager.
  [[nodiscard]] std::vector<SessionInfo> session_infos() const;
  [[nodiscard]] const ServiceMetrics& metrics() const { return metrics_; }
  /// Mutable counters, for a transport layering its own traffic counters
  /// (tcp_*, connections_*) into the same export.
  [[nodiscard]] ServiceMetrics& metrics() { return metrics_; }

  /// Installs the hook that fills the host-owned gauges (the transport
  /// shard sets connections, channels and the authority gauges). Runs
  /// last, over the already-populated struct. Unset = those gauges read
  /// 0. Call before serving exports; not synchronized against them.
  void set_host_gauges(std::function<void(ServiceMetrics::Gauges&)> fill) {
    host_gauges_ = std::move(fill);
  }
  /// Point-in-time gauges: active sessions from the session table, the
  /// process-wide precomp and trace gauges, then the host hook's. Both
  /// export surfaces read this one struct.
  [[nodiscard]] ServiceMetrics::Gauges gauges() const;

  /// Full metrics JSON (includes the gauges).
  [[nodiscard]] std::string metrics_json() const;
  /// Prometheus text exposition of the same counters (GET /metrics body).
  [[nodiscard]] std::string metrics_prometheus() const;

  /// The cross-session batch verifier; null when batch_verify is off.
  /// pump() flushes it for every session it finishes, so drivers only
  /// need poll_batch() if they enqueue work outside pump (none do today).
  [[nodiscard]] BatchVerifier* batch_verifier() noexcept {
    return batch_.get();
  }
  /// Deadline policy passthrough: flushes pending batch jobs older than
  /// batch_max_delay. Returns true when a flush ran.
  bool poll_batch();

 private:
  struct Hosted;

  std::shared_ptr<Hosted> hosted(std::uint64_t sid) const;
  void on_round_complete(std::uint64_t sid, std::size_t round,
                         Clock::time_point now, std::uint64_t modexp);
  void on_done(std::uint64_t sid);
  void on_expired(std::uint64_t sid);

  /// Egress tap: counts outgoing traffic, then forwards to the user sink
  /// or loops back into handle_frame.
  struct EgressTap;

  ServiceOptions options_;
  Clock* clock_;  // never null
  ServiceMetrics metrics_;
  std::function<void(ServiceMetrics::Gauges&)> host_gauges_;
  std::unique_ptr<EgressTap> tap_;
  std::unique_ptr<BatchVerifier> batch_;  // before manager_: outlives pumps
  std::unique_ptr<SessionManager> manager_;

  mutable std::mutex hosted_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Hosted>> hosted_;

  std::mutex feed_mu_;
  FrameBuffer feed_buffer_;
};

}  // namespace shs::service
