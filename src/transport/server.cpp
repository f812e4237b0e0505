#include "transport/server.h"

#include <sys/socket.h>

#include <cerrno>
#include <thread>
#include <utility>

#include "obs/redact.h"
#include "transport/authority_hub.h"
#include "transport/channel_hub.h"

namespace shs::transport {

namespace {

service::Clock* fallback_steady_clock() {
  static service::SteadyClock clock;
  return &clock;
}

}  // namespace

TransportServer::TransportServer(ServerOptions options,
                                 service::ServiceOptions service_options,
                                 SessionFactory factory)
    : options_(std::move(options)),
      factory_(std::move(factory)),
      user_terminal_(std::move(service_options.on_terminal)),
      trace_(service_options.trace) {
  if (options_.num_shards == 0) {
    throw ProtocolError("TransportServer: num_shards must be >= 1");
  }
  if (service_options.egress != nullptr) {
    throw ProtocolError("TransportServer: egress is owned by the transport");
  }
  service_options.on_terminal = nullptr;
  if (options_.health_enabled) {
    build_health_plane(service_options.clock != nullptr
                           ? service_options.clock
                           : fallback_steady_clock());
  }
  const std::size_t n = options_.num_shards;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    service::ServiceOptions shard_options = service_options;
    if (options_.per_shard_options) {
      options_.per_shard_options(i, shard_options);
    }
    if (shard_options.egress != nullptr) {
      throw ProtocolError(
          "TransportServer: per-shard egress is owned by the transport");
    }
    shard_options.on_terminal = nullptr;  // the shard installs its own
    shard_options.first_sid = i + 1;
    shard_options.sid_stride = n;
    // The health plane is server-owned, like first_sid/sid_stride:
    // overwrite whatever per_shard_options left behind.
    shard_options.slo = slo_.get();
    shard_options.health = health_.get();
    shard_options.slo_shard = i;
    shards_.push_back(std::make_unique<Shard>(
        this, static_cast<std::uint32_t>(i), std::move(shard_options)));
  }
  if (options_.enable_authority) {
    authority_ =
        std::make_unique<authority::AuthorityEngine>(options_.authority_options);
  }
  if (options_.obs_endpoint) {
    ObsEndpoint::Options obs_options;
    obs_options.address = options_.obs_address;
    obs_options.port = options_.obs_port;
    obs_ = std::make_unique<ObsEndpoint>(shards_.front()->loop(), obs_options);
    obs_->add_route("/metrics", "text/plain; version=0.0.4",
                    [this] { return metrics_prometheus(); });
    obs_->add_route("/trace", "application/json", [this] {
      // One lane per shard: sessions render under their home shard's
      // pid, cross-session records under a synthetic "connections" lane.
      return trace_ != nullptr ? trace_->to_chrome_json(shards_.size())
                               : std::string("{\"traceEvents\": []}");
    });
    obs_->add_route("/sessions", "application/json",
                    [this] { return sessions_json(); });
    if (health_ != nullptr) {
      obs_->add_handler("/healthz", [this](const std::string& method) {
        if (method != "GET") {
          return ObsEndpoint::Response{405, "text/plain",
                                       "only GET is served here\n"};
        }
        return ObsEndpoint::Response{health_->healthy() ? 200 : 503,
                                     "application/json",
                                     health_->healthz_json()};
      });
      obs_->add_handler("/postmortem", [this](const std::string& method) {
        if (method != "POST") {
          return ObsEndpoint::Response{405, "text/plain",
                                       "POST here to capture a bundle\n"};
        }
        const obs::PostmortemEngine::CaptureResult result =
            postmortem_->capture("manual");
        std::string body = "{\"written\": ";
        body += result.written ? "true" : "false";
        body += ", \"suppressed\": ";
        body += result.suppressed ? "true" : "false";
        body += ", \"capped\": ";
        body += result.capped ? "true" : "false";
        body += ", \"path\": \"" + result.path + "\"}\n";
        return ObsEndpoint::Response{result.written ? 200 : 503,
                                     "application/json", std::move(body)};
      });
    }
  }
}

void TransportServer::build_health_plane(service::Clock* clock) {
  obs::SloTracker::Options slo_options;
  slo_options.num_shards = options_.num_shards;
  slo_options.window = options_.slo_window;
  slo_ = std::make_unique<obs::SloTracker>(slo_options);

  obs::HealthMonitor::Options health_options;
  health_options.num_shards = options_.num_shards;
  health_options.clock = clock;
  health_options.stall_after = options_.health_stall_after;
  health_options.unhealthy_after = options_.health_unhealthy_after;
  health_ = std::make_unique<obs::HealthMonitor>(health_options);

  obs::PostmortemEngine::Options pm_options;
  pm_options.dir = options_.postmortem_dir;
  pm_options.clock = clock;
  postmortem_ = std::make_unique<obs::PostmortemEngine>(pm_options);

  // Bundle sections, capture order. Every producer reads atomics or
  // takes the same snapshots the scrape surfaces take, so capture is
  // safe from the watchdog timer (shard 0's loop) or any caller of
  // POST /postmortem's handler.
  postmortem_->add_section("config", [this] {
    std::string out = "{\"num_shards\": " +
                      std::to_string(options_.num_shards) +
                      ", \"stripe_sessions\": " +
                      (options_.stripe_sessions ? "true" : "false") +
                      ", \"enable_channels\": " +
                      (options_.enable_channels ? "true" : "false") +
                      ", \"enable_authority\": " +
                      (options_.enable_authority ? "true" : "false") +
                      ", \"health_check_interval_ms\": " +
                      std::to_string(options_.health_check_interval.count()) +
                      ", \"health_stall_after_ms\": " +
                      std::to_string(options_.health_stall_after.count()) +
                      ", \"health_unhealthy_after\": " +
                      std::to_string(options_.health_unhealthy_after) +
                      ", \"slo_window\": " +
                      std::to_string(options_.slo_window) + "}";
    return out;
  });
  postmortem_->add_section("health", [this] {
    return health_->healthz_json();
  });
  postmortem_->add_section("slo", [this] { return slo_->to_json(); });
  postmortem_->add_section("sessions", [this] { return sessions_json(); });
  postmortem_->add_section("metrics", [this] { return metrics_json(); });
  postmortem_->add_section("per_shard_metrics", [this] {
    std::string out = "[";
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (i != 0) out += ", ";
      out += shards_[i]->service().metrics_json();
    }
    out += "]";
    return out;
  });
  postmortem_->add_section("trace", [this] {
    return trace_ != nullptr ? trace_->to_chrome_json(shards_.size())
                             : std::string("{\"traceEvents\": []}");
  });

  if (options_.postmortem_on_stall) {
    health_->set_on_stall([this](const obs::HealthMonitor::Stall& stall) {
      // Capture once per cell, at the kUnhealthy transition — the
      // kDegraded step may still recover and the engine's max_bundles
      // cap is better spent on confirmed stalls.
      if (stall.state != obs::HealthState::kUnhealthy) return;
      std::string reason = "stall-";
      reason += obs::to_string(stall.component);
      reason += "-shard";
      reason += std::to_string(stall.shard);
      (void)postmortem_->capture(reason);
    });
  }
}

void TransportServer::arm_health_timer() {
  shards_.front()->loop().add_timer(options_.health_check_interval,
                                    [this] { health_check_pass(); });
}

void TransportServer::health_check_pass() {
  if (stopping_.load(std::memory_order_acquire)) return;
  if (options_.postmortem_on_sigterm &&
      obs::PostmortemEngine::consume_sigterm()) {
    (void)postmortem_->capture("sigterm");
  }
  (void)health_->check();  // on_stall fires inline on transitions
  arm_health_timer();      // timers are one-shot; re-arm from the loop
}

TransportServer::~TransportServer() { shutdown(); }

void TransportServer::start() {
  if (started_.exchange(true)) {
    throw ProtocolError("TransportServer: start() called twice");
  }
  std::size_t shards_running = 0;
  try {
    listener_ = tcp_listen(options_.address, options_.port, options_.backlog);
    port_ = local_port(listener_.get());
    shards_.front()->loop().add_fd(listener_.get(), kLoopRead,
                                   [this](std::uint32_t) { accept_ready(); });
    if (obs_ != nullptr) obs_->start();
    for (auto& shard : shards_) shard->arm_expire_timer();
    if (health_ != nullptr) {
      if (options_.postmortem_on_sigterm) {
        obs::PostmortemEngine::install_sigterm_trigger();
      }
      arm_health_timer();
    }
    for (auto& shard : shards_) {
      shard->start_threads();
      ++shards_running;
    }
  } catch (...) {
    // Unwind the partial start so the destructor's shutdown() stays a
    // no-op: stop whatever shards got their threads, then clean up the
    // listener/obs registrations (safe: those loops are stopped or never
    // ran, so nothing touches the fd tables concurrently).
    for (std::size_t i = 0; i < shards_running; ++i) {
      shards_[i]->stop_worker();
      shards_[i]->stop_loop();
    }
    if (listener_.valid()) {
      shards_.front()->loop().remove_fd(listener_.get());
      listener_.reset();
    }
    if (obs_ != nullptr) obs_->stop();
    started_.store(false, std::memory_order_release);
    throw;
  }
}

void TransportServer::accept_ready() {
  while (true) {
    const int fd = ::accept4(listener_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      dispatch_socket(Fd(fd), /*on_shard0_loop=*/true);
      continue;
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    // Persistent failure (EMFILE/ENFILE/ENOMEM...): the level-triggered
    // backends keep reporting the listener readable, so retrying on the
    // next readiness event would spin the loop at 100% CPU. Pause
    // accepting and rearm after a delay instead.
    EventLoop& loop = shards_.front()->loop();
    loop.set_interest(listener_.get(), 0);
    loop.add_timer(options_.accept_retry_delay, [this] {
      if (stopping_.load(std::memory_order_acquire) || !listener_.valid()) {
        return;  // shutdown removed the listener meanwhile
      }
      shards_.front()->loop().set_interest(listener_.get(), kLoopRead);
      accept_ready();
    });
    return;
  }
}

void TransportServer::dispatch_socket(Fd fd, bool on_shard0_loop) {
  const std::uint64_t id =
      next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t target =
      next_accept_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  Shard& shard = *shards_[target];
  if (target == 0 && on_shard0_loop) {
    shard.install_connection(std::move(fd), id);
    return;
  }
  shard.loop().post([&shard, raw = fd.release(), id] {
    shard.install_connection(Fd(raw), id);
  });
}

void TransportServer::adopt_connection(Fd fd) {
  // Deal like an accept, but wait until the connection is registered so
  // callers can immediately speak on their end of the socket.
  const std::uint64_t id =
      next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t target =
      next_accept_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  Shard& shard = *shards_[target];
  const int raw = fd.release();
  shard.run_on_loop([&shard, raw, id] { shard.install_connection(Fd(raw), id); });
}

void TransportServer::dispatch_open(ConnRef from, std::uint32_t tag,
                                    Bytes payload) {
  const std::size_t home =
      options_.stripe_sessions
          ? next_open_shard_.fetch_add(1, std::memory_order_relaxed) %
                shards_.size()
          : from.shard;
  shards_[home]->enqueue_open(from, tag, std::move(payload));
}

std::shared_ptr<Connection> TransportServer::find_connection(
    ConnRef ref) const {
  return shards_[ref.shard]->find_connection(ref.conn);
}

void TransportServer::purge_routes_everywhere(ConnRef ref) {
  for (auto& shard : shards_) {
    shard->purge_routes_of(ref);
    shard->hub().purge(ref);
    shard->authority_hub().purge(ref);
  }
}

void TransportServer::broadcast_rekey_locked(const cgkd::RekeyMessage& msg) {
  const Bytes encoded =
      encode_frame(make_rekey(RekeyEnvelope{msg.epoch, msg.payload}));
  // Engine-level broadcasts are server-wide events; stamp them once, on
  // shard 0's block (the merged surfaces sum the per-shard blocks).
  service::ServiceMetrics& m0 = shards_.front()->service().metrics();
  m0.authority_rekeys.fetch_add(1, std::memory_order_relaxed);
  m0.authority_rekey_bytes.fetch_add(msg.size(), std::memory_order_relaxed);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    shards_[i]->authority_hub().broadcast(encoded);
    if (slo_ != nullptr) {
      // Rekey-propagation lag, per shard: engine op done -> this shard's
      // fan-out queued on every subscriber. The epoch rides as the
      // exemplar (rekeys have no sid).
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0);
      slo_->record(i, obs::SloDimension::kRekeyLag,
                   static_cast<std::uint64_t>(us.count()), msg.epoch);
    }
  }
}

cgkd::RekeyMessage TransportServer::authority_join(cgkd::MemberId id) {
  if (authority_ == nullptr) {
    throw ProtocolError("TransportServer: authority is disabled");
  }
  const std::lock_guard<std::mutex> lock(authority_mu_);
  cgkd::RekeyMessage msg = authority_->join(id);
  broadcast_rekey_locked(msg);
  return msg;
}

cgkd::RekeyMessage TransportServer::authority_leave(cgkd::MemberId id) {
  if (authority_ == nullptr) {
    throw ProtocolError("TransportServer: authority is disabled");
  }
  const std::lock_guard<std::mutex> lock(authority_mu_);
  cgkd::RekeyMessage msg = authority_->leave(id);
  broadcast_rekey_locked(msg);
  return msg;
}

cgkd::RekeyMessage TransportServer::authority_refresh() {
  if (authority_ == nullptr) {
    throw ProtocolError("TransportServer: authority is disabled");
  }
  const std::lock_guard<std::mutex> lock(authority_mu_);
  cgkd::RekeyMessage msg = authority_->refresh();
  broadcast_rekey_locked(msg);
  return msg;
}

cgkd::RekeyMessage TransportServer::authority_bootstrap(
    const std::vector<cgkd::MemberId>& ids) {
  if (authority_ == nullptr) {
    throw ProtocolError("TransportServer: authority is disabled");
  }
  const std::lock_guard<std::mutex> lock(authority_mu_);
  cgkd::RekeyMessage msg = authority_->bootstrap(ids);
  broadcast_rekey_locked(msg);
  return msg;
}

std::size_t TransportServer::authority_subscriber_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->authority_hub().subscriber_count();
  }
  return total;
}

void TransportServer::handle_authority_sub(ConnRef from, std::uint32_t tag,
                                           const SubscribeRequest& request) {
  const std::shared_ptr<Connection> conn = find_connection(from);
  if (conn == nullptr || conn->closed()) return;
  service::ServiceMetrics& metrics =
      shards_[from.shard]->service().metrics();
  if (authority_ == nullptr) {
    metrics.authority_rejects.fetch_add(1, std::memory_order_relaxed);
    conn->send(encode_frame(make_sub_err(tag, request.member_id,
                                         "authority is disabled")));
    return;
  }
  const std::lock_guard<std::mutex> lock(authority_mu_);
  try {
    authority::Admission admission =
        authority_->subscribe(request.member_id, request.join);
    // Subscribe before replying or broadcasting: the member must not
    // miss a rekey issued between its admission and its first poll.
    shards_[from.shard]->authority_hub().subscribe(request.member_id, from);
    metrics.authority_subscribes.fetch_add(1, std::memory_order_relaxed);
    conn->send(encode_frame(make_sub_ok(tag, admission.state)));
    // A join admission rekeys everyone who was already a member. The
    // joiner receives it too (its feed is live) and drops it as stale —
    // its state is already at the join epoch.
    if (admission.broadcast) broadcast_rekey_locked(*admission.broadcast);
  } catch (const Error& e) {
    metrics.authority_rejects.fetch_add(1, std::memory_order_relaxed);
    conn->send(encode_frame(make_sub_err(tag, request.member_id, e.what())));
  }
}

void TransportServer::handle_authority_sync(ConnRef from, std::uint32_t tag,
                                            std::uint64_t member_id) {
  const std::shared_ptr<Connection> conn = find_connection(from);
  if (conn == nullptr || conn->closed()) return;
  service::ServiceMetrics& metrics =
      shards_[from.shard]->service().metrics();
  if (authority_ == nullptr) {
    metrics.authority_rejects.fetch_add(1, std::memory_order_relaxed);
    conn->send(
        encode_frame(make_sub_err(tag, member_id, "authority is disabled")));
    return;
  }
  const std::lock_guard<std::mutex> lock(authority_mu_);
  try {
    const Bytes state = authority_->member_state(member_id);
    // A sync implies the caller wants the feed (it may have lost it with
    // a previous connection) — (re)register it here too.
    shards_[from.shard]->authority_hub().subscribe(member_id, from);
    metrics.authority_syncs.fetch_add(1, std::memory_order_relaxed);
    conn->send(encode_frame(make_sub_ok(tag, state)));
  } catch (const Error& e) {
    metrics.authority_rejects.fetch_add(1, std::memory_order_relaxed);
    conn->send(encode_frame(make_sub_err(tag, member_id, e.what())));
  }
}

service::SessionState TransportServer::session_state(std::uint64_t sid) const {
  return shards_[home_shard_of(sid)]->service().state(sid);
}

std::vector<core::HandshakeOutcome> TransportServer::outcomes(
    std::uint64_t sid) const {
  return shards_[home_shard_of(sid)]->service().outcomes(sid);
}

std::size_t TransportServer::connection_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->connection_count();
  return total;
}

std::size_t TransportServer::connection_count(std::size_t shard) const {
  return shards_.at(shard)->connection_count();
}

std::uint64_t TransportServer::installed_on(std::size_t shard) const {
  return shards_.at(shard)->installed();
}

std::vector<service::ShardMetrics> TransportServer::shard_metrics() const {
  std::vector<service::ShardMetrics> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.push_back({&shard->service().metrics(), shard->service().gauges()});
  }
  return out;
}

std::string TransportServer::metrics_json() const {
  service::ServiceMetrics merged;
  const service::ServiceMetrics::Gauges gauges =
      service::fold_shards(shard_metrics(), &merged);
  return merged.to_json(gauges);
}

std::string TransportServer::metrics_prometheus() const {
  const std::vector<service::ShardMetrics> shards = shard_metrics();
  service::ServiceMetrics merged;
  obs::MetricsSnapshot snapshot =
      merged.snapshot(service::fold_shards(shards, &merged));
  // Suppressed at N=1: a lone shard's breakdown is the merged block
  // repeated.
  if (shards.size() > 1) service::append_shard_series(shards, &snapshot);
  if (slo_ != nullptr) slo_->fill_snapshot(&snapshot);
  if (health_ != nullptr) health_->fill_snapshot(&snapshot);
  if (obs_ != nullptr) {
    // Scrape self-metrics: the endpoint watching itself. Name-major so
    // each name renders one HELP/TYPE block.
    const std::vector<ObsEndpoint::ScrapeStat> stats = obs_->scrape_stats();
    auto path_label = [](const std::string& path) {
      return "path=\"" + path + "\"";
    };
    for (const auto& row : stats) {
      snapshot.scalars.push_back({"shs_obs_scrape_requests_total",
                                  "Scrape requests served per route",
                                  /*gauge=*/false, row.requests,
                                  path_label(row.path)});
    }
    for (const auto& row : stats) {
      snapshot.scalars.push_back({"shs_obs_scrape_duration_us_total",
                                  "Cumulative scrape handler time per route",
                                  /*gauge=*/false, row.duration_us,
                                  path_label(row.path)});
    }
    for (const auto& row : stats) {
      snapshot.scalars.push_back({"shs_obs_scrape_bytes_total",
                                  "Cumulative scrape body bytes per route",
                                  /*gauge=*/false, row.bytes,
                                  path_label(row.path)});
    }
  }
  return obs::prometheus_text(snapshot);
}

std::string TransportServer::sessions_json() const {
  std::string out = "{\"sessions\": [";
  bool first = true;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    for (const service::SessionInfo& info :
         shards_[i]->service().session_infos()) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "  {\"sid\": " + std::to_string(info.sid) +
             ", \"shard\": " + std::to_string(i) + ", \"state\": \"" +
             service::to_string(info.state) +
             "\", \"round\": " + std::to_string(info.round) +
             ", \"total_rounds\": " + std::to_string(info.total_rounds) +
             ", \"m\": " + std::to_string(info.m) +
             ", \"age_ms\": " + std::to_string(info.age_ms) +
             ", \"deadline_slack_ms\": " +
             std::to_string(info.deadline_slack_ms) + "}";
    }
  }
  out += first ? "]}\n" : "\n]}\n";
  obs::audit_output(out, "sessions");
  return out;
}

void TransportServer::debug_wedge_pump(std::size_t shard) {
  shards_.at(shard)->set_wedged(true);
  // The signal marks pump work pending and wakes the worker into the
  // wedge spin: the watchdog then sees work owed with no beats — a
  // stall, not idleness.
  shards_.at(shard)->signal_pump();
}

void TransportServer::debug_unwedge_pump(std::size_t shard) {
  shards_.at(shard)->set_wedged(false);
  shards_.at(shard)->signal_pump();
}

void TransportServer::shutdown() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (shutdown_done_.exchange(true)) return;
  stopping_.store(true, std::memory_order_release);

  // Stop accepting (the listener lives on shard 0's loop) and tell every
  // client on every shard the server is draining.
  shards_.front()->run_on_loop([this] {
    if (listener_.valid()) {
      shards_.front()->loop().remove_fd(listener_.get());
      listener_.reset();
    }
    if (obs_ != nullptr) obs_->stop();
  });
  const Bytes notice = encode_frame(make_shutdown());
  for (auto& shard : shards_) shard->send_to_all(notice);

  // Drain: wait (real time) for live sessions to finish and write queues
  // to empty across every shard, then close connections gracefully.
  const auto deadline =
      std::chrono::steady_clock::now() + options_.drain_deadline;
  while (std::chrono::steady_clock::now() < deadline) {
    bool queues_empty = true;
    std::size_t live_routes = 0;
    for (const auto& shard : shards_) {
      queues_empty = queues_empty && shard->write_queues_empty();
      live_routes += shard->route_count();
    }
    if (queues_empty && live_routes == 0) break;
    for (auto& shard : shards_) shard->signal_pump();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  for (auto& shard : shards_) {
    shard->run_on_loop([&shard] { shard->shutdown_connections_when_drained(); });
  }

  // Give graceful closes one tick, then force whatever is left.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  for (auto& shard : shards_) {
    shard->run_on_loop([&shard] { shard->force_close_connections(); });
  }

  for (auto& shard : shards_) shard->stop_worker();
  for (auto& shard : shards_) shard->drain_deferred_closes();
  for (auto& shard : shards_) shard->stop_loop();
}

}  // namespace shs::transport
