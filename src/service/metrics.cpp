#include "service/metrics.h"

#include <cstdio>
#include <string_view>
#include <utility>
#include <vector>

namespace shs::service {

namespace {

std::size_t bucket_index(std::uint64_t us) noexcept {
  std::size_t i = 0;
  while (us > 1 && i + 1 < LatencyHistogram::kBuckets) {
    us >>= 1;
    ++i;
  }
  return i;
}

}  // namespace

void LatencyHistogram::record(std::chrono::nanoseconds elapsed) noexcept {
  const auto us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
  buckets_[bucket_index(us)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(us, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::count() const noexcept {
  return count_.load(std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::sum_us() const noexcept {
  return sum_us_.load(std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::bucket_count(std::size_t i) const noexcept {
  return i < kBuckets ? buckets_[i].load(std::memory_order_relaxed) : 0;
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  sum_us_.fetch_add(other.sum_us(), std::memory_order_relaxed);
}

void LatencyHistogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_us_.store(0, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::quantile_us(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen > rank || seen == total) {
      return i + 1 < kBuckets ? (std::uint64_t{1} << (i + 1)) - 1
                              : std::uint64_t{1} << i;
    }
  }
  return 0;
}

std::string LatencyHistogram::to_json() const {
  const std::uint64_t n = count();
  char head[160];
  std::snprintf(head, sizeof head,
                "{\"count\": %llu, \"mean_us\": %.3g, \"p50_us\": %llu, "
                "\"p99_us\": %llu, \"buckets\": [",
                static_cast<unsigned long long>(n),
                n == 0 ? 0.0
                       : static_cast<double>(sum_us()) / static_cast<double>(n),
                static_cast<unsigned long long>(quantile_us(0.5)),
                static_cast<unsigned long long>(quantile_us(0.99)));
  std::string out = head;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(buckets_[i].load(std::memory_order_relaxed));
  }
  out += "]}";
  return out;
}

obs::HistogramEntry LatencyHistogram::exposition(std::string name,
                                                 std::string help) const {
  obs::HistogramEntry e;
  e.name = std::move(name);
  e.help = std::move(help);
  e.bucket_le_us.reserve(kBuckets);
  e.bucket_counts.reserve(kBuckets);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    // Bucket i covers [2^i, 2^(i+1)); its inclusive upper bound is
    // 2^(i+1) - 1 us. The last bucket renders as +Inf regardless.
    e.bucket_le_us.push_back((std::uint64_t{1} << (i + 1)) - 1);
    e.bucket_counts.push_back(buckets_[i].load(std::memory_order_relaxed));
  }
  e.count = count();
  e.sum_us = sum_us();
  return e;
}

namespace {

using M = ServiceMetrics;
using G = ServiceMetrics::Gauges;
using Counter = std::atomic<std::uint64_t> M::*;

constexpr MetricRow counter(const char* json, Counter field, const char* name,
                            const char* help,
                            const char* shard_help = nullptr) {
  return {name, help, MetricKind::kCounter, json, field, nullptr, nullptr,
          false, shard_help};
}

constexpr MetricRow high_water(const char* json, Counter field,
                               const char* name, const char* help) {
  return {name, help, MetricKind::kMaxGauge, json, field};
}

// A gauge summed across shards.
constexpr MetricRow gauge(const char* json, std::uint64_t G::* field,
                          const char* name, const char* help,
                          const char* shard_help = nullptr) {
  return {name, help, MetricKind::kGauge, json, nullptr, field, nullptr,
          false, shard_help};
}

// Process-wide rows (see MetricRow::process_wide).
constexpr MetricRow process_gauge(const char* json, std::uint64_t G::* field,
                                  const char* name, const char* help) {
  return {name, help, MetricKind::kGauge, json, nullptr, field, nullptr, true};
}

constexpr MetricRow process_counter(const char* json, std::uint64_t G::* field,
                                    const char* name, const char* help) {
  return {name, help, MetricKind::kCounter, json, nullptr, field, nullptr,
          true};
}

constexpr MetricRow histogram(const char* json, LatencyHistogram M::* field,
                              const char* name, const char* help) {
  return {name, help, MetricKind::kHistogram, json, nullptr, nullptr, field};
}

// Export order: the Prometheus body renders rows in this order, and the
// JSON document nests them by key path (rows sharing a path prefix must
// be adjacent).
constexpr MetricRow kTable[] = {
    counter("sessions.opened", &M::sessions_opened,
            "shs_sessions_opened_total", "Handshake sessions opened",
            "Handshake sessions opened on one shard"),
    counter("sessions.confirmed", &M::sessions_confirmed,
            "shs_sessions_confirmed_total",
            "Sessions that confirmed at least one partner"),
    counter("sessions.failed", &M::sessions_failed,
            "shs_sessions_failed_total",
            "Sessions that completed without a clique"),
    counter("sessions.expired", &M::sessions_expired,
            "shs_sessions_expired_total", "Sessions expired at the deadline"),
    gauge("sessions.active", &G::active_sessions, "shs_sessions_active",
          "Sessions currently in the session table",
          "Sessions active on one shard"),
    counter("rounds_advanced", &M::rounds_advanced,
            "shs_rounds_advanced_total", "Protocol rounds advanced"),
    counter("frames.in", &M::frames_in, "shs_frames_in_total",
            "Frames accepted into sessions"),
    counter("frames.out", &M::frames_out, "shs_frames_out_total",
            "Frames emitted to the egress sink"),
    counter("frames.rejected", &M::frames_rejected,
            "shs_frames_rejected_total", "Frames rejected before slotting"),
    counter("frames.bytes_in", &M::bytes_in, "shs_frame_bytes_in_total",
            "Encoded bytes of accepted frames"),
    counter("frames.bytes_out", &M::bytes_out, "shs_frame_bytes_out_total",
            "Encoded bytes of emitted frames"),
    counter("transport.bytes_in", &M::tcp_bytes_in, "shs_tcp_bytes_in_total",
            "Raw bytes read from transport sockets"),
    counter("transport.bytes_out", &M::tcp_bytes_out,
            "shs_tcp_bytes_out_total",
            "Raw bytes written to transport sockets"),
    counter("transport.writes", &M::tcp_writes, "shs_tcp_writes_total",
            "Successful write calls on transport sockets"),
    counter("transport.connections.accepted", &M::connections_accepted,
            "shs_connections_accepted_total", "Transport connections accepted"),
    counter("transport.connections.closed", &M::connections_closed,
            "shs_connections_closed_total", "Transport connections closed"),
    counter("transport.connections.killed_backpressure",
            &M::connections_killed_backpressure,
            "shs_connections_killed_backpressure_total",
            "Connections killed at the write-queue kill watermark"),
    gauge("transport.connections.active", &G::active_connections,
          "shs_connections_active", "Transport connections currently open",
          "Transport connections open on one shard"),
    counter("transport.frames_unowned", &M::frames_unowned,
            "shs_frames_unowned_total",
            "Frames dropped for session-ownership violations"),
    high_water("transport.write_queue_hwm_bytes", &M::write_queue_hwm,
               "shs_write_queue_hwm_bytes",
               "High-water mark across connection write queues"),
    counter("transport.handoff_in", &M::frames_handoff_in,
            "shs_frames_handoff_in_total",
            "Session frames received from another shard's connection",
            "Frames this shard received from another shard's connection"),
    counter("transport.handoff_out", &M::frames_handoff_out,
            "shs_frames_handoff_out_total",
            "Session frames handed off to another shard's service",
            "Frames this shard handed off to another shard's service"),
    counter("batch.jobs", &M::batch_jobs, "shs_batch_jobs_total",
            "Verify jobs enqueued for batching"),
    counter("batch.deduped", &M::batch_jobs_deduped,
            "shs_batch_jobs_deduped_total",
            "Verify jobs coalesced with an identical pending job"),
    counter("batch.rejected", &M::batch_jobs_rejected,
            "shs_batch_jobs_rejected_total",
            "Batched verify jobs that resolved to reject"),
    counter("batch.flushes.total", &M::batch_flushes,
            "shs_batch_flushes_total", "Batch verifier flushes"),
    counter("batch.flushes.size", &M::batch_flushes_size,
            "shs_batch_flushes_size_total",
            "Flushes triggered by the max-pending threshold"),
    counter("batch.flushes.deadline", &M::batch_flushes_deadline,
            "shs_batch_flushes_deadline_total",
            "Flushes triggered by the deadline poll"),
    counter("batch.checks", &M::batch_checks, "shs_batch_checks_total",
            "Unique prepared checks folded across all flushes"),
    counter("batch.bisections", &M::batch_bisections,
            "shs_batch_bisections_total",
            "Failed-fold bisection splits during batch verification"),
    counter("batch.individual", &M::batch_individual,
            "shs_batch_individual_verifies_total",
            "Singleton fallback verifications after bisection"),
    high_water("batch.max_size", &M::batch_max_size, "shs_batch_max_size",
               "High-water mark of unique checks per flush"),
    counter("channel.opened", &M::channels_opened, "shs_channels_opened_total",
            "Post-handshake channels registered with the relay"),
    counter("channel.closed", &M::channels_closed, "shs_channels_closed_total",
            "Post-handshake channels torn down or expired"),
    gauge("channel.active", &G::channels_open, "shs_channels_open",
          "Channels currently registered with the relay",
          "Relay channels registered on one shard"),
    counter("channel.attaches", &M::channel_attaches,
            "shs_channel_attaches_total", "Accepted channel attach requests"),
    counter("channel.records_in", &M::channel_records_in,
            "shs_channel_records_in_total",
            "Channel records received from attached members",
            "Channel records received by one shard's hub"),
    counter("channel.records_relayed", &M::channel_records_relayed,
            "shs_channel_records_relayed_total",
            "Channel records fanned out to clique members"),
    counter("channel.bytes_in", &M::channel_bytes_in,
            "shs_channel_bytes_in_total",
            "Record payload bytes received from attached members"),
    counter("channel.bytes_relayed", &M::channel_bytes_relayed,
            "shs_channel_bytes_relayed_total",
            "Record payload bytes fanned out to clique members"),
    counter("channel.records_unowned", &M::channel_records_unowned,
            "shs_channel_records_unowned_total",
            "Channel records dropped for attach-ownership violations"),
    counter("channel.rekeys", &M::channel_rekeys, "shs_channel_rekeys_total",
            "REKEY records observed by the relay"),
    counter("authority.rekeys", &M::authority_rekeys,
            "shs_authority_rekeys_total",
            "Rekey broadcasts issued by the group authority"),
    counter("authority.rekey_bytes", &M::authority_rekey_bytes,
            "shs_authority_rekey_bytes_total",
            "Encoded bytes of issued rekey broadcasts"),
    counter("authority.rekeys_relayed", &M::authority_rekeys_relayed,
            "shs_authority_rekeys_relayed_total",
            "Rekey broadcasts fanned out to subscribed connections",
            "Rekey broadcasts one shard's hub fanned out"),
    counter("authority.rekey_bytes_relayed", &M::authority_rekey_bytes_relayed,
            "shs_authority_rekey_bytes_relayed_total",
            "Encoded rekey bytes fanned out to subscribed connections"),
    counter("authority.subscribes", &M::authority_subscribes,
            "shs_authority_subscribes_total",
            "Accepted authority subscribe requests"),
    counter("authority.syncs", &M::authority_syncs, "shs_authority_syncs_total",
            "Member re-sync snapshots served by the authority"),
    counter("authority.rejects", &M::authority_rejects,
            "shs_authority_rejects_total",
            "Authority subscribe/sync requests rejected"),
    process_gauge("authority.members", &G::authority_members,
                  "shs_authority_members",
                  "Members currently in the authority's group"),
    process_gauge("authority.epoch", &G::authority_epoch, "shs_authority_epoch",
                  "Current CGKD epoch of the group authority"),
    gauge("authority.subscribers", &G::authority_subscribers,
          "shs_authority_subscribers",
          "Connections subscribed to rekey broadcasts",
          "Rekey-broadcast subscriptions on one shard"),
    process_gauge("precomp.tables", &G::precomp_tables, "shs_precomp_tables",
                  "Fixed-base tables in the process-wide cache"),
    process_gauge("precomp.hits", &G::precomp_hits, "shs_precomp_hits",
                  "Process-wide precomputation cache hits"),
    process_gauge("precomp.misses", &G::precomp_misses, "shs_precomp_misses",
                  "Process-wide precomputation cache misses"),
    process_counter("trace.recorded", &G::trace_recorded,
                    "shs_trace_records_total",
                    "Flight-recorder records accepted"),
    process_counter(
        "trace.dropped", &G::trace_dropped, "shs_trace_dropped_total",
        "Flight-recorder records overwritten before export (ring wrap)"),
    process_counter(
        "trace.sampling_skipped", &G::trace_sampling_skipped,
        "shs_trace_sampling_skipped_total",
        "Flight-recorder record calls rejected by the sampling filter"),
    histogram("latency.phase1", &M::phase1_latency, "shs_phase1_latency_us",
              "Session open to end of Phase I"),
    histogram("latency.phase2", &M::phase2_latency, "shs_phase2_latency_us",
              "Session open to end of Phase II"),
    histogram("latency.phase3", &M::phase3_latency, "shs_phase3_latency_us",
              "Session open to end of Phase III"),
    histogram("latency.session", &M::session_latency, "shs_session_latency_us",
              "Session open to final round delivered"),
};

std::uint64_t value_of(const MetricRow& row, const ServiceMetrics& m,
                       const G& gauges) {
  return row.counter != nullptr
             ? (m.*row.counter).load(std::memory_order_relaxed)
             : gauges.*row.gauge;
}

obs::MetricEntry scalar(const MetricRow& row, std::uint64_t value) {
  return {row.name, row.help, row.kind != MetricKind::kCounter, value, {}};
}

}  // namespace

std::span<const MetricRow> metric_table() noexcept { return kTable; }

void ServiceMetrics::merge_from(const ServiceMetrics& other) noexcept {
  for (const MetricRow& row : kTable) {
    if (row.histogram != nullptr) {
      (this->*row.histogram).merge(other.*row.histogram);
    } else if (row.counter != nullptr) {
      const std::uint64_t n =
          (other.*row.counter).load(std::memory_order_relaxed);
      if (row.kind == MetricKind::kMaxGauge) {
        raise_to(this->*row.counter, n);
      } else if (n != 0) {
        (this->*row.counter).fetch_add(n, std::memory_order_relaxed);
      }
    }
  }
}

std::string ServiceMetrics::to_json(const Gauges& gauges) const {
  // Rows nest by key path. Top-level members and histograms start a new
  // line; everything else stays on its parent's line.
  std::string out = "{";
  std::vector<std::string_view> open;  // path of the innermost open object
  for (const MetricRow& row : kTable) {
    std::vector<std::string_view> path;
    for (std::string_view rest = row.json;;) {
      const std::size_t dot = rest.find('.');
      path.push_back(rest.substr(0, dot));
      if (dot == std::string_view::npos) break;
      rest.remove_prefix(dot + 1);
    }
    std::size_t shared = 0;
    while (shared < open.size() && shared + 1 < path.size() &&
           open[shared] == path[shared]) {
      ++shared;
    }
    out.append(open.size() - shared, '}');
    open.resize(shared);
    for (std::size_t i = shared; i < path.size(); ++i) {
      if (out.back() != '{') {
        if (open.empty()) {
          out += ",\n ";
        } else if (i + 1 == path.size() &&
                   row.kind == MetricKind::kHistogram) {
          out += ",\n" + std::string(open.size() + 1, ' ');
        } else {
          out += ", ";
        }
      }
      out += "\"";
      out += path[i];
      out += "\": ";
      if (i + 1 < path.size()) {
        out += "{";
        open.push_back(path[i]);
      }
    }
    out += row.histogram != nullptr
               ? (this->*row.histogram).to_json()
               : std::to_string(value_of(row, *this, gauges));
  }
  out.append(open.size() + 1, '}');
  return out;
}

obs::MetricsSnapshot ServiceMetrics::snapshot(const Gauges& gauges) const {
  obs::MetricsSnapshot s;
  for (const MetricRow& row : kTable) {
    if (row.histogram != nullptr) {
      s.histograms.push_back(
          (this->*row.histogram).exposition(row.name, row.help));
    } else {
      s.scalars.push_back(scalar(row, value_of(row, *this, gauges)));
    }
  }
  return s;
}

ServiceMetrics::Gauges fold_shards(std::span<const ShardMetrics> shards,
                                   ServiceMetrics* merged) {
  ServiceMetrics::Gauges out;
  for (const ShardMetrics& shard : shards) merged->merge_from(*shard.block);
  for (const MetricRow& row : kTable) {
    if (row.gauge == nullptr) continue;
    for (const ShardMetrics& shard : shards) {
      out.*row.gauge += shard.gauges.*row.gauge;
      if (row.process_wide) break;  // every shard reports the same value
    }
  }
  return out;
}

void append_shard_series(std::span<const ShardMetrics> shards,
                         obs::MetricsSnapshot* snapshot) {
  for (const MetricRow& row : kTable) {
    if (row.shard_help == nullptr) continue;
    // shs_<x> -> shs_shard_<x>
    const std::string name =
        "shs_shard_" + std::string(std::string_view(row.name).substr(4));
    for (std::size_t i = 0; i < shards.size(); ++i) {
      obs::MetricEntry e =
          scalar(row, value_of(row, *shards[i].block, shards[i].gauges));
      e.name = name;
      e.help = row.shard_help;
      e.labels = "shard=\"" + std::to_string(i) + "\"";
      snapshot->scalars.push_back(std::move(e));
    }
  }
}

}  // namespace shs::service
