#include "transport/shard.h"

#include <chrono>
#include <future>
#include <thread>
#include <utility>

#include "channel/keys.h"
#include "channel/record.h"
#include "channel/roster.h"
#include "transport/authority_hub.h"
#include "transport/channel_hub.h"
#include "transport/server.h"

namespace shs::transport {

struct Shard::Egress final : service::FrameSink {
  explicit Egress(Shard* shard) : shard(shard) {}
  void on_frame(const service::Frame& frame) override {
    shard->route_egress(frame);
  }
  Shard* shard;
};

Shard::Shard(TransportServer* server, std::uint32_t index,
             service::ServiceOptions service_options)
    : server_(server),
      index_(index),
      egress_(std::make_unique<Egress>(this)),
      trace_(service_options.trace),
      health_(service_options.health),
      limits_(server->options_.limits),
      loop_(server->options_.backend, service_options.clock) {
  if (health_ != nullptr) {
    // The loop heartbeat: run(tick) guarantees a run_once() pass (and
    // therefore a beat) at least once per tick even when idle, which is
    // why the checker treats kEventLoop as always owing beats.
    loop_.set_tick_hook([this] {
      health_->beat(index_, obs::HealthComponent::kEventLoop);
    });
  }
  obs::SloTracker* slo = service_options.slo;
  service_options.egress = egress_.get();
  service_options.on_terminal = [this](std::uint64_t sid,
                                       service::SessionState state) {
    on_terminal(sid, state);
  };
  service_ = std::make_unique<service::RendezvousService>(
      std::move(service_options));
  hub_ = std::make_unique<ChannelHub>(server, &service_->metrics(), trace_,
                                      index_, slo);
  authority_hub_ = std::make_unique<AuthorityHub>(
      server, &service_->metrics(), index_, health_);
  // This shard's export surfaces gauge its own sockets, relay channels
  // and subscriptions; authority members/epoch are process-wide (the
  // engine is the server's, built after this constructor — the hook runs
  // at export time). The server folds the per-shard gauges by the
  // metric table.
  service_->set_host_gauges([this](service::ServiceMetrics::Gauges& g) {
    g.active_connections = connection_count();
    g.channels_open = hub_->channels_open();
    const authority::AuthorityEngine* engine = server_->authority_.get();
    if (engine == nullptr) return;
    g.authority_members = engine->member_count();
    g.authority_epoch = engine->epoch();
    g.authority_subscribers = authority_hub_->subscriber_count();
  });
}

Shard::~Shard() {
  stop_worker();
  stop_loop();
}

void Shard::arm_expire_timer() {
  expire_timer_ = loop_.add_timer(server_->options_.expire_interval, [this] {
    if (server_->stopping_.load(std::memory_order_acquire)) return;
    (void)service_->expire_stalled();
    drain_deferred_closes();
    hub_->gc(std::chrono::steady_clock::now(),
             server_->options_.channel_linger);
    arm_expire_timer();
  });
}

void Shard::start_threads() {
  worker_ = std::thread([this] { worker_loop(); });
  try {
    loop_thread_ = std::thread([this] { loop_.run(); });
  } catch (...) {
    stop_worker();
    throw;
  }
}

void Shard::stop_worker() {
  {
    const std::lock_guard<std::mutex> lock(work_mu_);
    stop_worker_ = true;
  }
  work_cv_.notify_one();
  if (worker_.joinable()) worker_.join();
  stop_worker_ = false;
}

void Shard::stop_loop() {
  loop_.stop();
  if (loop_thread_.joinable()) loop_thread_.join();
}

void Shard::install_connection(Fd fd, std::uint64_t id) {
  service::ServiceMetrics& metrics = service_->metrics();
  Connection::Callbacks callbacks;
  callbacks.on_frame = [this](Connection& conn, service::Frame frame) {
    on_frame(conn, std::move(frame));
  };
  callbacks.on_closed = [this](Connection& conn, const std::string&, bool) {
    on_conn_closed(conn);
  };
  auto conn = std::make_shared<Connection>(
      loop_, std::move(fd), id, limits_, std::move(callbacks), &metrics,
      trace_);
  // Count before publishing: conns_mu_ orders these bumps before any
  // reader that sees the connection in connection_count().
  installed_.fetch_add(1, std::memory_order_relaxed);
  metrics.connections_accepted.fetch_add(1, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.emplace(id, conn);
  }
  conn->register_with_loop();
  if (trace_ != nullptr) {
    trace_->record(obs::TraceEvent::kConnAccepted, 0, id);
  }
}

void Shard::on_frame(Connection& conn, service::Frame frame) {
  if (is_control(frame)) {
    switch (static_cast<ControlOp>(frame.round)) {
      case ControlOp::kOpen: {
        if (server_->stopping_.load(std::memory_order_acquire)) {
          conn.send(encode_frame(
              make_open_err(frame.position, "server is shutting down")));
          return;
        }
        server_->dispatch_open(ConnRef{index_, conn.id()}, frame.position,
                               std::move(frame.payload));
        return;
      }
      case ControlOp::kAttach: {
        // The channel homes with its session; the hub is mutex-guarded
        // and Connection::send is any-thread safe, so the cross-shard
        // call is a plain synchronous one (decode errors propagate and
        // close the stream like any other malformed control frame).
        const AttachRequest request = decode_attach(frame);
        const std::uint32_t home =
            server_->home_shard_of(request.session_id);
        conn.send(encode_frame(server_->shards_[home]->hub().attach(
            request, frame.position, ConnRef{index_, conn.id()})));
        return;
      }
      case ControlOp::kDetach: {
        const auto [sid, position] = decode_detach(frame);
        server_->shards_[server_->home_shard_of(sid)]->hub().detach(
            sid, position, ConnRef{index_, conn.id()});
        return;
      }
      case ControlOp::kSub: {
        // The engine is process-wide, so admission goes through the
        // server (which serializes engine ops with broadcast fan-out);
        // the subscription itself lands on this connection's shard.
        server_->handle_authority_sub(ConnRef{index_, conn.id()},
                                      frame.position, decode_sub(frame));
        return;
      }
      case ControlOp::kSync: {
        server_->handle_authority_sync(ConnRef{index_, conn.id()},
                                       frame.position, decode_sync(frame));
        return;
      }
      case ControlOp::kUnsub: {
        authority_hub_->unsubscribe(decode_unsub(frame),
                                    ConnRef{index_, conn.id()});
        return;
      }
      default:
        throw ProtocolError(
            "transport: unexpected control opcode from client");
    }
  }
  const std::uint32_t home = server_->home_shard_of(frame.session_id);
  if (channel::is_channel_frame(frame)) {
    // Channel records bypass the session path entirely: the home shard's
    // hub does its own (sid, position) -> connection ownership check and
    // fans the sealed record out synchronously — a record never touches
    // the SessionManager (whose round bookkeeping would reject it) and
    // never waits on a pump worker.
    server_->shards_[home]->hub().relay(frame, ConnRef{index_, conn.id()});
    return;
  }
  if (home != index_) {
    // Hand the frame to its home shard's worker; the ownership check
    // happens there, against this sender's full ConnRef.
    service_->metrics().frames_handoff_out.fetch_add(
        1, std::memory_order_relaxed);
    server_->shards_[home]->enqueue_remote_frame(ConnRef{index_, conn.id()},
                                                 std::move(frame));
    return;
  }
  // Ownership check: session ids are guessable (striped sequences), so an
  // unchecked forward would let any client inject frames into another
  // connection's handshake. Only the connection the session was opened on
  // may speak for it; everything else is dropped and counted.
  {
    const std::lock_guard<std::mutex> lock(routes_mu_);
    const auto route = routes_.find(frame.session_id);
    if (route == routes_.end() ||
        route->second != ConnRef{index_, conn.id()}) {
      service_->metrics().frames_unowned.fetch_add(1,
                                                   std::memory_order_relaxed);
      return;
    }
  }
  const service::FrameDisposition d = service_->handle_frame(std::move(frame));
  if (d == service::FrameDisposition::kCompletedRound) signal_pump();
}

void Shard::on_conn_closed(Connection& conn) {
  const std::uint64_t id = conn.id();
  {
    const std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.erase(id);
  }
  // Orphan the connection's sessions everywhere: striped sessions may
  // home on any shard. With their routes gone the egress is dropped and
  // each home shard's expiry timer reaps the stall.
  server_->purge_routes_everywhere(ConnRef{index_, id});
}

void Shard::route_egress(const service::Frame& frame) {
  ConnRef ref;
  {
    const std::lock_guard<std::mutex> lock(routes_mu_);
    const auto route = routes_.find(frame.session_id);
    if (route == routes_.end()) {
      server_->egress_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ref = route->second;
  }
  const std::shared_ptr<Connection> conn = server_->find_connection(ref);
  if (conn == nullptr || conn->closed()) {
    server_->egress_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  conn->send(encode_frame(frame));
}

void Shard::on_terminal(std::uint64_t sid, service::SessionState state) {
  server_->sessions_completed_.fetch_add(1, std::memory_order_relaxed);
  SessionSummary summary;
  summary.session_id = sid;
  summary.state = state;
  const std::vector<core::HandshakeOutcome> outcomes =
      service_->outcomes(sid);
  for (const core::HandshakeOutcome& o : outcomes) {
    summary.confirmed.push_back(
        static_cast<std::uint32_t>(o.confirmed_count()));
  }
  // Register the session's relay channel before the deferred close can
  // reap the outcomes. The roster is derived from the first confirmed
  // clique: under partial success distinct cliques hold distinct session
  // keys, and members of another clique simply fail the token check —
  // one relay channel per session is the supported shape.
  if (state == service::SessionState::kDone &&
      server_->options_.enable_channels) {
    for (const core::HandshakeOutcome& o : outcomes) {
      if (!o.completed || o.confirmed_count() < 2) continue;
      try {
        const channel::ChannelKeys keys(o.session_key, sid,
                                        o.clique_positions());
        hub_->open_channel(channel::Roster(keys));
      } catch (const Error&) {
        // A clique the key schedule rejects gets no channel; the
        // handshake result itself is unaffected.
      }
      break;
    }
  }
  bool routed = false;
  ConnRef ref;
  {
    const std::lock_guard<std::mutex> lock(routes_mu_);
    const auto route = routes_.find(sid);
    if (route != routes_.end()) {
      ref = route->second;
      routed = true;
      routes_.erase(route);
    }
  }
  if (routed) {
    const std::shared_ptr<Connection> conn = server_->find_connection(ref);
    if (conn != nullptr) conn->send(encode_frame(make_done(summary)));
  }
  if (server_->options_.auto_close_sessions) {
    // close() re-enters the session manager, which is off-limits inside
    // a service hook — defer to whoever is driving (worker / timer).
    const std::lock_guard<std::mutex> lock(close_mu_);
    deferred_close_.push_back(sid);
  }
  if (server_->user_terminal_) server_->user_terminal_(sid, state);
}

void Shard::enqueue_open(ConnRef from, std::uint32_t tag, Bytes payload) {
  {
    const std::lock_guard<std::mutex> lock(work_mu_);
    opens_.push_back(OpenJob{from, tag, std::move(payload)});
    if (health_ != nullptr) {
      health_->set_pending(index_, obs::HealthComponent::kPump, true);
    }
  }
  work_cv_.notify_one();
}

void Shard::enqueue_remote_frame(ConnRef from, service::Frame frame) {
  {
    const std::lock_guard<std::mutex> lock(work_mu_);
    remote_frames_.push_back(RemoteFrame{from, std::move(frame)});
    if (health_ != nullptr) {
      health_->set_pending(index_, obs::HealthComponent::kPump, true);
    }
  }
  work_cv_.notify_one();
}

void Shard::signal_pump() {
  {
    const std::lock_guard<std::mutex> lock(work_mu_);
    pump_requested_ = true;
    if (health_ != nullptr) {
      health_->set_pending(index_, obs::HealthComponent::kPump, true);
    }
  }
  work_cv_.notify_one();
}

void Shard::do_open(const OpenJob& job) {
  const std::shared_ptr<Connection> conn = server_->find_connection(job.from);
  if (conn == nullptr || conn->closed()) return;  // client already gone
  try {
    auto parties = server_->factory_(job.payload);
    const std::uint64_t sid = service_->open_session(std::move(parties));
    {
      const std::lock_guard<std::mutex> lock(routes_mu_);
      routes_.emplace(sid, job.from);
    }
    conn->send(encode_frame(make_open_ok(job.tag, sid)));
  } catch (const Error& e) {
    conn->send(encode_frame(make_open_err(job.tag, e.what())));
  }
}

void Shard::ingest_remote(RemoteFrame rf) {
  {
    const std::lock_guard<std::mutex> lock(routes_mu_);
    const auto route = routes_.find(rf.frame.session_id);
    if (route == routes_.end() || route->second != rf.from) {
      service_->metrics().frames_unowned.fetch_add(1,
                                                   std::memory_order_relaxed);
      return;
    }
  }
  service_->metrics().frames_handoff_in.fetch_add(1,
                                                  std::memory_order_relaxed);
  // No pump signal needed: the worker pumps right after this batch.
  (void)service_->handle_frame(std::move(rf.frame));
}

void Shard::worker_loop() {
  std::unique_lock<std::mutex> lock(work_mu_);
  while (true) {
    work_cv_.wait(lock, [this] {
      return stop_worker_ || pump_requested_ || !opens_.empty() ||
             !remote_frames_.empty();
    });
    if (stop_worker_) return;
    if (wedged_.load(std::memory_order_acquire)) {
      // Crash drill: hold the accepted work without touching it. The
      // pending flag stays raised and no beat is stamped, which is the
      // exact signature the watchdog classifies as a stalled pump.
      lock.unlock();
      while (wedged_.load(std::memory_order_acquire)) {
        {
          const std::lock_guard<std::mutex> stop_check(work_mu_);
          if (stop_worker_) return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      lock.lock();
      continue;
    }
    std::deque<OpenJob> opens;
    opens.swap(opens_);
    std::deque<RemoteFrame> remotes;
    remotes.swap(remote_frames_);
    pump_requested_ = false;
    lock.unlock();

    for (const OpenJob& job : opens) do_open(job);
    for (RemoteFrame& rf : remotes) ingest_remote(std::move(rf));
    // Opens queue round-0 work; frames (local or handed off) may have
    // completed rounds since the last pass. pump() drains everything
    // that is ready, including sessions made ready while it runs.
    (void)service_->pump();
    drain_deferred_closes();

    lock.lock();
    if (health_ != nullptr) {
      // End-of-pass accounting under work_mu_: clear pending only if
      // nothing arrived while the pass ran (a mid-pass wedge therefore
      // leaves pending raised with an aging beat — detectable), then
      // stamp the pass as progress.
      if (opens_.empty() && remote_frames_.empty() && !pump_requested_) {
        health_->set_pending(index_, obs::HealthComponent::kPump, false);
      }
      health_->beat(index_, obs::HealthComponent::kPump);
    }
  }
}

void Shard::drain_deferred_closes() {
  std::vector<std::uint64_t> batch;
  {
    const std::lock_guard<std::mutex> lock(close_mu_);
    batch.swap(deferred_close_);
  }
  for (const std::uint64_t sid : batch) (void)service_->close(sid);
}

std::shared_ptr<Connection> Shard::find_connection(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(conns_mu_);
  const auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second;
}

void Shard::purge_routes_of(ConnRef ref) {
  const std::lock_guard<std::mutex> lock(routes_mu_);
  for (auto it = routes_.begin(); it != routes_.end();) {
    it = it->second == ref ? routes_.erase(it) : std::next(it);
  }
}

std::size_t Shard::connection_count() const {
  const std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

std::size_t Shard::route_count() const {
  const std::lock_guard<std::mutex> lock(routes_mu_);
  return routes_.size();
}

bool Shard::write_queues_empty() const {
  const std::lock_guard<std::mutex> lock(conns_mu_);
  for (const auto& [id, conn] : conns_) {
    if (conn->queued_bytes() != 0) return false;
  }
  return true;
}

void Shard::send_to_all(const Bytes& encoded) {
  std::vector<std::shared_ptr<Connection>> conns;
  {
    const std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& [id, conn] : conns_) conns.push_back(conn);
  }
  for (const auto& conn : conns) conn->send(encoded);
}

void Shard::shutdown_connections_when_drained() {
  std::vector<std::shared_ptr<Connection>> conns;
  {
    const std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& [id, conn] : conns_) conns.push_back(conn);
  }
  for (const auto& conn : conns) conn->shutdown_when_drained();
}

void Shard::force_close_connections() {
  std::vector<std::shared_ptr<Connection>> conns;
  {
    const std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& [id, conn] : conns_) conns.push_back(conn);
  }
  for (const auto& conn : conns) conn->close("server shutdown");
}

void Shard::run_on_loop(std::function<void()> fn) {
  auto done = std::make_shared<std::promise<void>>();
  auto future = done->get_future();
  loop_.post([fn = std::move(fn), done] {
    fn();
    done->set_value();
  });
  future.wait();
}

}  // namespace shs::transport
