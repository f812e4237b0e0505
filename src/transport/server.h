// TransportServer — the rendezvous service behind real TCP sockets,
// sharded across N independent reactors.
//
// The server is an orchestrator over `num_shards` Shards (shard.h). Each
// shard owns an EventLoop thread doing all socket I/O for its
// connections, a pump-worker thread driving that shard's own
// RendezvousService (own SessionManager, own BatchVerifier), and the
// shard's route table. The server owns what must be singular: the
// listening socket (registered on shard 0's loop; accepted fds are dealt
// round-robin across shards), the observability endpoint (shard 0's
// loop, serving the *merged* per-shard metrics), and shutdown
// orchestration. Data flow per shard:
//
//   socket readable -> Connection reassembles frames -> control frames
//   (session 0) queue OpenJobs for a home shard's worker; session frames
//   go to their home shard's service (synchronously when home == the
//   connection's shard, via the worker queue otherwise) -> worker pumps
//   -> egress frames route by session id to the owning connection's
//   write queue (any shard; send() is thread-safe) -> that loop flushes.
//
// Session homes: with stripe_sessions off (default), a session homes on
// the shard of the connection that opened it — every frame then takes
// the synchronous single-reactor path, exactly the pre-shard server.
// With stripe_sessions on, opens are dealt round-robin across shards
// regardless of connection placement, exercising the cross-shard handoff
// on every frame of a remote-homed session. Session ids are striped
// (shard i hands out i+1, i+1+N, ...) so home = (sid - 1) % N is derived,
// never looked up; with num_shards = 1 the ids are the classic dense
// 1, 2, 3, ... and behavior is byte-identical to the single-reactor
// server.
//
// Routing invariant (per shard): a shard's pump worker is the only
// caller of its service's pump(), and a session's route (sid -> ConnRef)
// is installed on the home shard before that worker pumps the open — so
// egress can never observe a session without a route. Routes gate both
// directions: inbound session frames are forwarded only from the exact
// (shard, connection) that owns the route (anything else is dropped and
// counted as frames_unowned), and egress frames for a routeless session
// are counted and dropped. A route dies with its connection or its
// session (the session then stalls and the home shard's expiry timer
// reaps it).
//
// Graceful shutdown: stop accepting, notify every client (kShutdown),
// wait up to `drain_deadline` for live sessions to finish and write
// queues to flush across all shards, then close connections and join
// every shard's threads. Destruction shuts down.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "authority/engine.h"
#include "core/handshake.h"
#include "obs/health.h"
#include "obs/postmortem.h"
#include "service/service.h"
#include "transport/connection.h"
#include "transport/event_loop.h"
#include "transport/obs_endpoint.h"
#include "transport/shard.h"
#include "transport/wire.h"

namespace shs::transport {

/// Builds the hosted participants for one kOpen request (the payload is
/// whatever convention the deployment uses; this repo's helpers encode an
/// OpenRequest). Runs on a pump worker, so heavyweight construction
/// never blocks socket I/O. Throwing shs::Error rejects the open with
/// kOpenErr carrying the message.
using SessionFactory =
    std::function<std::vector<std::unique_ptr<core::HandshakeParticipant>>(
        BytesView open_payload)>;

struct ServerOptions {
  std::string address = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; read back with port()
  int backlog = 128;
  LoopBackend backend = LoopBackend::kAuto;
  ConnectionLimits limits;
  /// Reactor shards: independent EventLoop + pump worker + service each.
  /// 1 (the default) is the single-reactor server, byte-for-byte; 0 is
  /// rejected at construction.
  std::size_t num_shards = 1;
  /// Deal session opens round-robin across shards instead of homing each
  /// session on its connection's shard. Off by default: connection-local
  /// homes keep every frame on the synchronous single-reactor path. On,
  /// remote-homed sessions exercise the cross-shard handoff on every
  /// frame — the stress/TSan suites run with this on.
  bool stripe_sessions = false;
  /// Tweak one shard's ServiceOptions before its service is built (e.g.
  /// install a per-shard adversary instance so stateful fault stacks are
  /// not shared across shard pump threads). Runs after the base options
  /// are copied; egress must stay unset and on_terminal/first_sid/
  /// sid_stride are owned by the server and overwritten afterwards. A
  /// borrowed `adversary` left in the base options is shared by every
  /// shard and must then be thread-safe under concurrent interception.
  std::function<void(std::size_t shard, service::ServiceOptions& options)>
      per_shard_options;
  /// Cadence of each shard's expire_stalled() timer (service clock).
  std::chrono::milliseconds expire_interval{500};
  /// How long accept pauses after a persistent accept() failure (EMFILE,
  /// ENFILE, ...) before the listener is rearmed (on the service clock).
  std::chrono::milliseconds accept_retry_delay{100};
  /// How long shutdown() waits for sessions/writes to drain (real time).
  std::chrono::milliseconds drain_deadline{5000};
  /// GC sessions (service.close) once their DONE notification is queued.
  /// Turn off when the host wants to inspect outcomes() afterwards.
  bool auto_close_sessions = true;
  /// Register a post-handshake relay channel for every session that
  /// completes with a clique (DESIGN.md §13). Off = kAttach is rejected
  /// as an unknown channel and records are dropped as unowned.
  bool enable_channels = true;
  /// How long a registered channel that never saw an attach survives
  /// before the home shard's expire timer reaps it.
  std::chrono::milliseconds channel_linger{30000};
  /// Host a process-wide group authority (authority/engine.h): the
  /// server answers kSub / kSync / kUnsub control frames, and every
  /// churn call (authority_join / _leave / _refresh / _bootstrap)
  /// broadcasts an epoch-stamped kRekey frame to all subscribed
  /// connections across every shard. Off = those control frames are
  /// rejected with kSubErr.
  bool enable_authority = false;
  /// Scheme, capacity and DRBG seed of the hosted engine.
  authority::AuthorityOptions authority_options;
  /// Serve GET /metrics (Prometheus text, merged across shards), GET
  /// /trace (Chrome trace JSON, one lane per shard) and GET /sessions
  /// (live-session introspection rows) from a second listener on shard
  /// 0's event loop — no extra threads. With the health plane enabled
  /// the endpoint also serves GET /healthz (200/503) and POST
  /// /postmortem. Disabled by default.
  bool obs_endpoint = false;
  std::string obs_address = "127.0.0.1";
  std::uint16_t obs_port = 0;  // 0 = ephemeral; read back with obs_port()
  /// Health plane (DESIGN.md §15): one SloTracker + HealthMonitor over
  /// every shard (handed to services, hubs and batch verifiers), a
  /// watchdog check timer on shard 0's loop, and a PostmortemEngine
  /// fired by stall transitions, SIGTERM or POST /postmortem. Off by
  /// default: no heartbeat stamping, and the N=1 export surfaces stay
  /// byte-identical to the single service's.
  bool health_enabled = false;
  /// Cadence of the watchdog check pass (service clock — a ManualClock
  /// drives the state machine deterministically in tests).
  std::chrono::milliseconds health_check_interval{250};
  /// A component owing a beat whose last beat is older than this is
  /// stalled. Must comfortably exceed the event-loop tick (100ms).
  std::chrono::milliseconds health_stall_after{1000};
  /// Consecutive stalled checks before kDegraded escalates to
  /// kUnhealthy (and, by default, a postmortem bundle is captured).
  std::uint32_t health_unhealthy_after = 2;
  /// Samples per (shard, dimension) SLO quantile window.
  std::size_t slo_window = obs::QuantileSketch::kDefaultWindow;
  /// Where postmortem bundles land (created on first capture).
  std::string postmortem_dir = "postmortems";
  /// Capture a bundle when a cell transitions into kUnhealthy.
  bool postmortem_on_stall = true;
  /// Install a process-wide SIGTERM flag handler; the watchdog timer
  /// polls it and captures a "sigterm" bundle. Off by default (tests
  /// must not steal each other's signal dispositions).
  bool postmortem_on_sigterm = false;
};

class TransportServer {
 public:
  /// `service_options.egress` must be unset (the server owns egress
  /// routing); a user-supplied on_terminal is chained after the server's
  /// and may fire from any shard's worker thread.
  TransportServer(ServerOptions options,
                  service::ServiceOptions service_options,
                  SessionFactory factory);
  ~TransportServer();
  TransportServer(const TransportServer&) = delete;
  TransportServer& operator=(const TransportServer&) = delete;

  /// Binds, listens and starts every shard's loop + pump threads. Throws
  /// TransportError (address in use, ...).
  void start();

  /// The bound port (valid after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// The observability listener's port (valid after start() with
  /// options.obs_endpoint = true; 0 otherwise).
  [[nodiscard]] std::uint16_t obs_port() const noexcept {
    return obs_ != nullptr ? obs_->port() : 0;
  }
  /// Null unless options.obs_endpoint was set.
  [[nodiscard]] ObsEndpoint* obs_endpoint() noexcept { return obs_.get(); }

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shards_.size();
  }
  /// Shard 0's service — with num_shards = 1 (the default) this is *the*
  /// service, exactly as before sharding existed.
  [[nodiscard]] service::RendezvousService& service() noexcept {
    return shards_.front()->service();
  }
  [[nodiscard]] service::RendezvousService& service(std::size_t shard) {
    return shards_.at(shard)->service();
  }
  [[nodiscard]] EventLoop& loop() noexcept { return shards_.front()->loop(); }
  [[nodiscard]] EventLoop& loop(std::size_t shard) {
    return shards_.at(shard)->loop();
  }

  /// The shard a session id homes on: (sid - 1) % num_shards.
  [[nodiscard]] std::uint32_t home_shard_of(std::uint64_t sid) const noexcept {
    return sid == 0 ? 0
                    : static_cast<std::uint32_t>((sid - 1) % shards_.size());
  }
  /// State/outcomes of a session, routed to its home shard's service.
  [[nodiscard]] service::SessionState session_state(std::uint64_t sid) const;
  [[nodiscard]] std::vector<core::HandshakeOutcome> outcomes(
      std::uint64_t sid) const;

  /// Adopts an already-connected stream socket as if it were accepted —
  /// dealt round-robin like an accept. The socketpair hook the fuzz
  /// tests and in-process benches use. Thread-safe; requires start().
  void adopt_connection(Fd fd);

  /// Live connections across all shards (or on one shard).
  [[nodiscard]] std::size_t connection_count() const;
  [[nodiscard]] std::size_t connection_count(std::size_t shard) const;
  /// Connections ever installed on one shard (accept distribution).
  [[nodiscard]] std::uint64_t installed_on(std::size_t shard) const;
  /// Sessions that reached kDone/kExpired under this server (all shards).
  [[nodiscard]] std::uint64_t sessions_completed() const noexcept {
    return sessions_completed_.load(std::memory_order_relaxed);
  }
  /// Egress frames dropped because their session had no live connection.
  [[nodiscard]] std::uint64_t egress_dropped() const noexcept {
    return egress_dropped_.load(std::memory_order_relaxed);
  }

  /// The hosted group authority; null unless options.enable_authority.
  [[nodiscard]] authority::AuthorityEngine* authority() noexcept {
    return authority_.get();
  }
  /// Server-driven churn: runs the engine op and fans the resulting
  /// epoch-stamped broadcast out to every subscribed connection, as one
  /// atomic step — every connection observes broadcasts in epoch order.
  /// Thread-safe; throw ProtocolError if the authority is disabled (or
  /// the engine rejects the op: duplicate join, unknown leave, ...).
  cgkd::RekeyMessage authority_join(cgkd::MemberId id);
  cgkd::RekeyMessage authority_leave(cgkd::MemberId id);
  cgkd::RekeyMessage authority_refresh();
  cgkd::RekeyMessage authority_bootstrap(
      const std::vector<cgkd::MemberId>& ids);
  /// Rekey-broadcast subscriptions across all shards.
  [[nodiscard]] std::size_t authority_subscriber_count() const;

  /// Merged export surfaces: every shard's block and gauges folded by
  /// the metric table (service::fold_shards — counters summed, high-water
  /// marks maxed, per-shard gauges summed, process-wide gauges taken
  /// once). With num_shards = 1 the fold is the identity, so both are
  /// byte-identical to the single service's own exports (the Prometheus
  /// surface only so long as no health plane or scrape endpoint adds
  /// series). The Prometheus surface appends the table's per-shard
  /// `shs_shard_*{shard="i"}` series when num_shards > 1, and shs_slo_* /
  /// shs_shard_health / shs_obs_scrape_* series when the corresponding
  /// plane is live.
  [[nodiscard]] std::string metrics_json() const;
  [[nodiscard]] std::string metrics_prometheus() const;

  /// The health plane; null unless options.health_enabled.
  [[nodiscard]] obs::SloTracker* slo() noexcept { return slo_.get(); }
  [[nodiscard]] obs::HealthMonitor* health() noexcept {
    return health_.get();
  }
  [[nodiscard]] obs::PostmortemEngine* postmortem() noexcept {
    return postmortem_.get();
  }
  /// True when every (shard, component) watchdog cell is kOk — also
  /// true with the health plane off (nothing is watching).
  [[nodiscard]] bool healthy() const noexcept {
    return health_ == nullptr || health_->healthy();
  }
  /// Body of GET /sessions: every shard's live-session introspection
  /// rows (sid, shard, phase, rounds, age, deadline slack — ids, enums
  /// and durations only), sid order within each shard.
  [[nodiscard]] std::string sessions_json() const;

  /// Crash-drill injection: wedges (or releases) one shard's pump worker
  /// so the stall watchdog has something real to catch. Wedging also
  /// signals the pump so the watchdog sees work *pending* — a wedge, not
  /// idleness. Test/drill surface only.
  void debug_wedge_pump(std::size_t shard);
  void debug_unwedge_pump(std::size_t shard);

  /// Graceful shutdown; idempotent; not callable from a loop thread.
  void shutdown();

 private:
  friend class Shard;
  friend class ChannelHub;
  friend class AuthorityHub;

  void accept_ready();
  /// Deals a fresh socket to the next shard round-robin. `on_shard0_loop`
  /// says whether the caller already runs on shard 0's loop thread (the
  /// accept path) so a shard-0 target can install synchronously.
  void dispatch_socket(Fd fd, bool on_shard0_loop);
  /// Picks the home shard for an open (stripe round-robin or the opening
  /// connection's shard) and queues it there.
  void dispatch_open(ConnRef from, std::uint32_t tag, Bytes payload);
  [[nodiscard]] std::shared_ptr<Connection> find_connection(
      ConnRef ref) const;
  void purge_routes_everywhere(ConnRef ref);
  /// Every shard's counter block and gauges, for the merged exports.
  [[nodiscard]] std::vector<service::ShardMetrics> shard_metrics() const;

  /// kSub / kSync handlers (called from a shard loop thread). Both reply
  /// on the requesting connection and register the subscription on its
  /// shard's hub; a join-admission's broadcast fans out before the lock
  /// is released so the new member's feed starts at its join epoch.
  void handle_authority_sub(ConnRef from, std::uint32_t tag,
                            const SubscribeRequest& request);
  void handle_authority_sync(ConnRef from, std::uint32_t tag,
                             std::uint64_t member_id);
  /// Encodes and fans one broadcast to every shard's subscribers.
  /// Caller holds authority_mu_.
  void broadcast_rekey_locked(const cgkd::RekeyMessage& msg);

  /// Builds the health plane (tracker, monitor, postmortem engine and
  /// its sections). Ctor helper; runs before the shards are built.
  void build_health_plane(service::Clock* clock);
  /// (Re-)arms the watchdog check timer on shard 0's loop.
  void arm_health_timer();
  /// One watchdog pass: SIGTERM poll, check(), re-arm.
  void health_check_pass();

  ServerOptions options_;
  SessionFactory factory_;
  std::function<void(std::uint64_t, service::SessionState)> user_terminal_;
  obs::TraceRecorder* trace_ = nullptr;  // borrowed via ServiceOptions
  // Health plane: built before the shards (they borrow the pointers),
  // so declared before shards_ to destruct after them.
  std::unique_ptr<obs::SloTracker> slo_;
  std::unique_ptr<obs::HealthMonitor> health_;
  std::unique_ptr<obs::PostmortemEngine> postmortem_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ObsEndpoint> obs_;

  // Process-wide group authority (null unless enabled). authority_mu_
  // spans [engine op -> per-shard fan-out] so broadcast order == epoch
  // order on every subscribed connection; the engine's own lock alone
  // could interleave two ops' fan-outs.
  std::unique_ptr<authority::AuthorityEngine> authority_;
  mutable std::mutex authority_mu_;

  Fd listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_done_{false};

  std::atomic<std::uint64_t> next_conn_id_{1};
  std::atomic<std::uint64_t> next_accept_{0};
  std::atomic<std::uint64_t> next_open_shard_{0};

  std::atomic<std::uint64_t> sessions_completed_{0};
  std::atomic<std::uint64_t> egress_dropped_{0};
};

}  // namespace shs::transport
