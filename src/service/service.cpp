#include "service/service.h"

#include <string>
#include <utility>

#include "bigint/fixed_base.h"
#include "common/errors.h"

namespace shs::service {

struct RendezvousService::Hosted {
  std::vector<std::unique_ptr<core::HandshakeParticipant>> parties;
  std::size_t phase1_rounds = 0;
  std::size_t total_rounds = 0;
  Clock::time_point opened;
  // Cumulative modular exponentiations attributed to this session (only
  // maintained while the session is traced; relaxed — per-round deltas
  // arrive from one pump thread at a time).
  std::atomic<std::uint64_t> modexp_total{0};

  mutable std::mutex mu;  // guards the fields below
  bool finished = false;
  SessionState final_state = SessionState::kDone;
  std::vector<core::HandshakeOutcome> outcomes;
};

struct RendezvousService::EgressTap final : FrameSink {
  explicit EgressTap(RendezvousService* service) : service(service) {}

  void on_frame(const Frame& frame) override {
    service->metrics_.frames_out.fetch_add(1, std::memory_order_relaxed);
    service->metrics_.bytes_out.fetch_add(wire_size(frame),
                                          std::memory_order_relaxed);
    if (service->options_.egress != nullptr) {
      service->options_.egress->on_frame(frame);
    } else {
      service->handle_frame(frame);
    }
  }

  RendezvousService* service;
};

namespace {

Clock* default_clock() {
  static SteadyClock clock;
  return &clock;
}

}  // namespace

RendezvousService::RendezvousService(ServiceOptions options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock : default_clock()),
      tap_(std::make_unique<EgressTap>(this)) {
  if (options_.batch_verify) {
    BatchVerifierOptions batch_options;
    batch_options.max_pending = options_.batch_max_pending;
    batch_options.max_delay = options_.batch_max_delay;
    batch_options.clock = clock_;
    batch_options.seed = options_.batch_seed;
    batch_options.metrics = &metrics_;
    batch_options.trace = options_.trace;
    batch_options.slo = options_.slo;
    batch_options.health = options_.health;
    batch_options.shard = options_.slo_shard;
    batch_ = std::make_unique<BatchVerifier>(std::move(batch_options));
  }
  ManagerOptions manager_options;
  manager_options.threads = options_.threads;
  manager_options.clock = clock_;
  manager_options.session_deadline = options_.session_deadline;
  manager_options.adversary = options_.adversary;
  manager_options.egress = tap_.get();
  manager_options.trace = options_.trace;
  manager_options.batch = batch_.get();
  manager_options.first_sid = options_.first_sid;
  manager_options.sid_stride = options_.sid_stride;
  SessionManager::Hooks hooks;
  hooks.on_round_complete = [this](std::uint64_t sid, std::size_t round,
                                   Clock::time_point now,
                                   std::uint64_t modexp) {
    on_round_complete(sid, round, now, modexp);
  };
  hooks.on_done = [this](std::uint64_t sid) { on_done(sid); };
  hooks.on_expired = [this](std::uint64_t sid) { on_expired(sid); };
  manager_ = std::make_unique<SessionManager>(manager_options,
                                              std::move(hooks));
}

RendezvousService::~RendezvousService() = default;

std::uint64_t RendezvousService::open_session(
    std::vector<std::unique_ptr<core::HandshakeParticipant>> parties) {
  if (parties.size() < 2) {
    throw ProtocolError("RendezvousService: need at least 2 parties");
  }
  auto host = std::make_shared<Hosted>();
  for (std::size_t i = 0; i < parties.size(); ++i) {
    if (parties[i] == nullptr || parties[i]->position() != i) {
      throw ProtocolError(
          "RendezvousService: party positions must match vector order");
    }
  }
  host->phase1_rounds = parties.front()->phase1_rounds();
  host->total_rounds = parties.front()->total_rounds();
  host->opened = clock_->now();
  if (batch_ != nullptr) {
    for (const auto& p : parties) p->set_deferred_verifier(batch_.get());
  }
  host->parties = std::move(parties);
  const std::size_t m = host->parties.size();
  const std::size_t rounds = host->total_rounds;

  std::vector<net::RoundParty*> raw;
  raw.reserve(host->parties.size());
  for (const auto& p : host->parties) raw.push_back(p.get());

  // Register the session, then the hosted record, then queue the round-0
  // production — so a concurrently pumping thread can never reach a hook
  // before the hosted record exists.
  const std::uint64_t sid = manager_->open(std::move(raw));
  {
    const std::lock_guard<std::mutex> lock(hosted_mu_);
    hosted_.emplace(sid, std::move(host));
  }
  manager_->start(sid);
  metrics_.sessions_opened.fetch_add(1, std::memory_order_relaxed);
  if (options_.logger != nullptr) {
    options_.logger->info("service", "session opened")
        .u64("sid", sid)
        .u64("m", m)
        .u64("rounds", rounds);
  }
  return sid;
}

std::shared_ptr<RendezvousService::Hosted> RendezvousService::hosted(
    std::uint64_t sid) const {
  const std::lock_guard<std::mutex> lock(hosted_mu_);
  auto it = hosted_.find(sid);
  return it == hosted_.end() ? nullptr : it->second;
}

FrameDisposition RendezvousService::handle_frame(Frame frame) {
  metrics_.frames_in.fetch_add(1, std::memory_order_relaxed);
  metrics_.bytes_in.fetch_add(wire_size(frame), std::memory_order_relaxed);
  obs::Logger* logger = options_.logger;
  if (logger != nullptr && logger->enabled(obs::LogLevel::kDebug)) {
    logger->debug("service", "frame in")
        .u64("sid", frame.session_id)
        .u64("round", frame.round)
        .u64("pos", frame.position)
        .bytes("payload", frame.payload);
  }
  const FrameDisposition d = manager_->handle_frame(std::move(frame));
  if (!accepted(d)) {
    metrics_.frames_rejected.fetch_add(1, std::memory_order_relaxed);
  }
  return d;
}

std::size_t RendezvousService::feed(BytesView chunk) {
  const std::lock_guard<std::mutex> lock(feed_mu_);
  feed_buffer_.feed(chunk);
  std::size_t frames = 0;
  while (auto frame = feed_buffer_.next()) {
    handle_frame(std::move(*frame));
    ++frames;
  }
  return frames;
}

std::size_t RendezvousService::pump() { return manager_->pump(); }

std::size_t RendezvousService::expire_stalled() {
  return manager_->expire_stalled();
}

void RendezvousService::on_round_complete(std::uint64_t sid, std::size_t round,
                                          Clock::time_point now,
                                          std::uint64_t modexp) {
  metrics_.rounds_advanced.fetch_add(1, std::memory_order_relaxed);
  const auto host = hosted(sid);
  if (host == nullptr) return;
  const auto elapsed = now - host->opened;
  obs::TraceRecorder* trace = options_.trace;
  const bool traced = trace != nullptr && trace->wants(sid);
  std::uint64_t modexp_total = 0;
  if (traced) {
    modexp_total =
        host->modexp_total.fetch_add(modexp, std::memory_order_relaxed) +
        modexp;
  }
  const auto elapsed_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  auto phase_done = [&](std::uint64_t phase) {
    if (traced) {
      trace->record(obs::TraceEvent::kPhaseCompleted, sid, phase, 0,
                    elapsed_ns, modexp_total);
    }
  };
  if (round + 1 == host->phase1_rounds) {
    metrics_.phase1_latency.record(elapsed);
    phase_done(1);
  }
  if (round == host->phase1_rounds) {
    metrics_.phase2_latency.record(elapsed);
    phase_done(2);
  }
  if (round + 1 == host->total_rounds) {
    if (host->total_rounds == host->phase1_rounds + 2) {
      metrics_.phase3_latency.record(elapsed);
      phase_done(3);
    }
    metrics_.session_latency.record(elapsed);
    phase_done(0);  // whole-session span
    if (options_.slo != nullptr) {
      options_.slo->record(options_.slo_shard, obs::SloDimension::kHandshake,
                           elapsed_ns / 1000, sid);
    }
  }
}

void RendezvousService::on_done(std::uint64_t sid) {
  const auto host = hosted(sid);
  if (host == nullptr) return;
  {
    const std::lock_guard<std::mutex> lock(host->mu);
    if (host->finished) return;
    host->outcomes.reserve(host->parties.size());
    bool confirmed = false;
    for (const auto& p : host->parties) {
      host->outcomes.push_back(p->outcome());
      confirmed = confirmed || host->outcomes.back().confirmed_count() >= 2;
    }
    host->final_state = SessionState::kDone;
    host->finished = true;
    (confirmed ? metrics_.sessions_confirmed : metrics_.sessions_failed)
        .fetch_add(1, std::memory_order_relaxed);
    if (options_.trace != nullptr) {
      options_.trace->record(
          confirmed ? obs::TraceEvent::kSessionConfirmed
                    : obs::TraceEvent::kSessionFailed,
          sid, 0, 0, 0, host->modexp_total.load(std::memory_order_relaxed));
    }
    if (options_.logger != nullptr) {
      options_.logger->info("service", "session terminal")
          .u64("sid", sid)
          .str("state", confirmed ? "confirmed" : "failed");
    }
  }
  if (options_.on_terminal) options_.on_terminal(sid, SessionState::kDone);
}

void RendezvousService::on_expired(std::uint64_t sid) {
  const auto host = hosted(sid);
  if (host == nullptr) return;
  {
    const std::lock_guard<std::mutex> lock(host->mu);
    if (host->finished) return;
    const std::size_t m = host->parties.size();
    host->outcomes.resize(m);
    for (core::HandshakeOutcome& o : host->outcomes) {
      o.completed = false;
      o.partner.assign(m, false);
      o.reason.assign(m, core::FailureReason::kTimeout);
      o.failure = "session expired: round incomplete past deadline";
    }
    host->final_state = SessionState::kExpired;
    host->finished = true;
    metrics_.sessions_expired.fetch_add(1, std::memory_order_relaxed);
    if (options_.logger != nullptr) {
      options_.logger->warn("service", "session expired").u64("sid", sid);
    }
  }
  if (options_.on_terminal) options_.on_terminal(sid, SessionState::kExpired);
}

SessionState RendezvousService::state(std::uint64_t sid) const {
  const auto host = hosted(sid);
  if (host != nullptr) {
    const std::lock_guard<std::mutex> lock(host->mu);
    if (host->finished) return host->final_state;
  }
  return manager_->state(sid);
}

std::vector<core::HandshakeOutcome> RendezvousService::outcomes(
    std::uint64_t sid) const {
  const auto host = hosted(sid);
  if (host == nullptr) {
    throw ProtocolError("RendezvousService: unknown session");
  }
  const std::lock_guard<std::mutex> lock(host->mu);
  if (!host->finished) {
    throw ProtocolError("RendezvousService: session still running");
  }
  return host->outcomes;
}

bool RendezvousService::close(std::uint64_t sid) {
  if (!manager_->erase(sid)) return false;
  const std::lock_guard<std::mutex> lock(hosted_mu_);
  hosted_.erase(sid);
  return true;
}

std::size_t RendezvousService::active_sessions() const {
  return manager_->active();
}

std::vector<SessionInfo> RendezvousService::session_infos() const {
  return manager_->session_infos();
}

ServiceMetrics::Gauges RendezvousService::gauges() const {
  ServiceMetrics::Gauges g;
  g.active_sessions = active_sessions();
  num::PrecompCache& cache = num::PrecompCache::instance();
  g.precomp_tables = cache.size();
  g.precomp_hits = cache.hits();
  g.precomp_misses = cache.misses();
  if (options_.trace != nullptr) {
    g.trace_recorded = options_.trace->recorded();
    g.trace_dropped = options_.trace->dropped();
    g.trace_sampling_skipped = options_.trace->sampling_skipped();
  }
  if (host_gauges_) host_gauges_(g);
  return g;
}

bool RendezvousService::poll_batch() {
  return batch_ != nullptr && batch_->poll();
}

std::string RendezvousService::metrics_json() const {
  return metrics_.to_json(gauges());
}

std::string RendezvousService::metrics_prometheus() const {
  return obs::prometheus_text(metrics_.snapshot(gauges()));
}

}  // namespace shs::service
