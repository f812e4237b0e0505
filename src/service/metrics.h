// Service observability: lock-free counters and latency histograms for
// the rendezvous service, exportable as one JSON document (the schema is
// documented in DESIGN.md §8) and as a Prometheus-text MetricsSnapshot
// (DESIGN.md §10). Everything here is updated from pool threads mid-pump,
// so every field is an atomic and histograms use atomic buckets; reads
// are monotonic snapshots, not a consistent cut.
//
// Hot counters are grouped into cache lines by writer domain (ingress,
// egress, round/lifecycle, transport) with alignas(64): ingress pump
// threads bumping frames_in must not invalidate the line an egress
// thread is bumping frames_out on.
//
// Every exported metric is declared once, as a row of metric_table() in
// metrics.cpp: Prometheus name, help, kind, dotted JSON key path and a
// member pointer to its field. Merge, the JSON document, the Prometheus
// snapshot and the server's per-shard shs_shard_* series are loops over
// that table, so adding a metric is one field here plus one row there.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>

#include "obs/exposition.h"

namespace shs::service {

/// Power-of-two-bucket latency histogram over microseconds: bucket i
/// counts durations in [2^i, 2^(i+1)) us (bucket 0 includes < 1 us, the
/// last bucket is open-ended). Records are lock-free; quantiles are
/// computed from the bucket upper bounds, so they are conservative.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 24;  // last bucket: >= ~8.4 s

  void record(std::chrono::nanoseconds elapsed) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] std::uint64_t sum_us() const noexcept;
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept;
  /// Upper bound (us) of the bucket holding quantile q in [0, 1];
  /// 0 when empty.
  [[nodiscard]] std::uint64_t quantile_us(double q) const noexcept;

  /// Adds every bucket, count and sum of `other` into this histogram
  /// (relaxed per-bucket; concurrent records land in one side or the
  /// other). Used to fold per-shard histograms into one exposition.
  void merge(const LatencyHistogram& other) noexcept;
  /// Zeroes all buckets, count and sum (relaxed; concurrent records may
  /// survive the wipe — reset is for between-run benches, not hot paths).
  void reset() noexcept;

  /// {"count":N,"mean_us":X,"p50_us":A,"p99_us":B,"buckets":[...]}
  [[nodiscard]] std::string to_json() const;

  /// Fills an exposition entry (per-bucket counts + le bounds in us).
  [[nodiscard]] obs::HistogramEntry exposition(std::string name,
                                               std::string help) const;

 private:
  // The bucket array gets its own cache-line start so recording threads
  // never share a line with the preceding histogram's count/sum pair.
  alignas(64) std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  alignas(64) std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_us_{0};
};

/// Counter block of one RendezvousService instance.
struct ServiceMetrics {
  /// Point-in-time gauges owned by other components, passed in at export
  /// time: active_sessions comes from the session table,
  /// active_connections from the transport server (0 when the service
  /// runs loopback). Both JSON and Prometheus exports take the same
  /// struct, so the two surfaces cannot disagree.
  struct Gauges {
    std::uint64_t active_sessions = 0;
    std::uint64_t active_connections = 0;
    // Post-handshake channels currently registered with the relay hubs
    // (attached or awaiting their first attach).
    std::uint64_t channels_open = 0;
    // Process-wide fixed-base precomputation cache (bigint/fixed_base.h),
    // sampled at export time. Gauges rather than counters because the
    // cache is shared by every service instance in the process.
    std::uint64_t precomp_tables = 0;
    std::uint64_t precomp_hits = 0;
    std::uint64_t precomp_misses = 0;
    // Group-authority service (transport/authority_hub.h). Members and
    // epoch come from the process-wide AuthorityEngine (set once at
    // export, like the precomp gauges — never summed across shards);
    // subscribers is summed from the per-shard hubs. All zero when the
    // server runs without an authority.
    std::uint64_t authority_members = 0;
    std::uint64_t authority_epoch = 0;
    std::uint64_t authority_subscribers = 0;
    // Flight-recorder accounting (obs/trace.h), sampled at export time
    // from the recorder the service borrows. Surfaced here so silent
    // trace loss (ring wrap, sampling) is alertable on both metric
    // surfaces, not just visible in the JSON trace export. All zero
    // when the service runs without a recorder.
    std::uint64_t trace_recorded = 0;
    std::uint64_t trace_dropped = 0;
    std::uint64_t trace_sampling_skipped = 0;
  };

  // Session lifecycle + round work (pump threads).
  alignas(64) std::atomic<std::uint64_t> sessions_opened{0};
  std::atomic<std::uint64_t> sessions_confirmed{0};  // some clique formed
  std::atomic<std::uint64_t> sessions_failed{0};     // completed, no clique
  std::atomic<std::uint64_t> sessions_expired{0};    // deadline hit
  std::atomic<std::uint64_t> rounds_advanced{0};

  // Frame ingress (post-codec; bytes are encoded wire sizes).
  alignas(64) std::atomic<std::uint64_t> frames_in{0};
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> frames_rejected{0};  // not slotted (see
                                                  // FrameDisposition)

  // Frame egress.
  alignas(64) std::atomic<std::uint64_t> frames_out{0};
  std::atomic<std::uint64_t> bytes_out{0};

  // TCP transport (src/transport) — all zero while the service runs
  // loopback or behind a custom FrameSink. Byte counters are raw socket
  // traffic (frames plus transport control), so they dominate the
  // frame-layer bytes_in/bytes_out above.
  alignas(64) std::atomic<std::uint64_t> tcp_bytes_in{0};
  std::atomic<std::uint64_t> tcp_bytes_out{0};
  // Successful write() calls; tcp_bytes_out / tcp_writes is the mean
  // write size, and frames_out / tcp_writes approximates the frames per
  // write (frames_out leaves out transport control frames).
  std::atomic<std::uint64_t> tcp_writes{0};
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_closed{0};
  // Subset of connections_closed: peer refused to drain our writes past
  // the kill watermark.
  std::atomic<std::uint64_t> connections_killed_backpressure{0};
  // Inbound session frames dropped because the sending connection does not
  // own the session id they carry (cross-session injection attempts, or
  // stragglers for a session whose route already died).
  std::atomic<std::uint64_t> frames_unowned{0};
  // High-water mark (bytes) across every connection's write queue.
  std::atomic<std::uint64_t> write_queue_hwm{0};
  // Cross-shard session frames: handoff_in counts frames this shard's
  // service received from another shard's connection (home-shard side),
  // handoff_out counts frames this shard enqueued toward another shard's
  // home service (connection-shard side). Both zero in a single-shard
  // server: same-shard traffic never touches the handoff path.
  std::atomic<std::uint64_t> frames_handoff_in{0};
  std::atomic<std::uint64_t> frames_handoff_out{0};

  /// Raises `mark` to `value` if it is the new maximum.
  static void raise_to(std::atomic<std::uint64_t>& mark,
                       std::uint64_t value) noexcept {
    std::uint64_t seen = mark.load(std::memory_order_relaxed);
    while (value > seen && !mark.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }

  /// Raises write_queue_hwm to `queued` if it is the new maximum.
  void note_write_queue_depth(std::uint64_t queued) noexcept {
    raise_to(write_queue_hwm, queued);
  }

  // Cross-session batch verification (service/batch_verify.h). Mean batch
  // size = batch_checks / batch_flushes; batch_max_size is the high-water
  // mark of unique checks in one flush.
  alignas(64) std::atomic<std::uint64_t> batch_jobs{0};  // enqueued
  std::atomic<std::uint64_t> batch_jobs_deduped{0};  // coalesced duplicates
  std::atomic<std::uint64_t> batch_jobs_rejected{0};  // reject verdicts
  std::atomic<std::uint64_t> batch_flushes{0};
  std::atomic<std::uint64_t> batch_flushes_size{0};      // size-triggered
  std::atomic<std::uint64_t> batch_flushes_deadline{0};  // deadline poll()
  std::atomic<std::uint64_t> batch_checks{0};      // unique checks folded
  std::atomic<std::uint64_t> batch_bisections{0};  // failed-fold splits
  std::atomic<std::uint64_t> batch_individual{0};  // singleton fallbacks
  std::atomic<std::uint64_t> batch_max_size{0};

  /// Raises batch_max_size to `size` if it is the new maximum.
  void note_batch_size(std::uint64_t size) noexcept {
    raise_to(batch_max_size, size);
  }

  // Post-handshake channel relay (src/channel records fanned out by the
  // transport's per-shard ChannelHub). Byte counters are record wire
  // payloads: *_in counts what attached members sent us, *_relayed what
  // the hub fanned out (relayed ≈ in × (clique size − 1)).
  alignas(64) std::atomic<std::uint64_t> channels_opened{0};
  std::atomic<std::uint64_t> channels_closed{0};
  std::atomic<std::uint64_t> channel_attaches{0};
  std::atomic<std::uint64_t> channel_records_in{0};
  std::atomic<std::uint64_t> channel_records_relayed{0};
  std::atomic<std::uint64_t> channel_bytes_in{0};
  std::atomic<std::uint64_t> channel_bytes_relayed{0};
  // Channel records dropped because the sending connection is not the
  // one attached for that (session, position) — the record-layer twin of
  // frames_unowned.
  std::atomic<std::uint64_t> channel_records_unowned{0};
  // REKEY records observed by the relay (it reads only the clear type
  // byte, never the body).
  std::atomic<std::uint64_t> channel_rekeys{0};

  // Group-authority churn service (transport/authority_hub.h). rekeys /
  // rekey_bytes count engine broadcasts once each (the server stamps them
  // on shard 0's block); *_relayed count the per-subscriber fan-out on
  // the shard that sent it (relayed ≈ rekeys × subscribed connections).
  alignas(64) std::atomic<std::uint64_t> authority_rekeys{0};
  std::atomic<std::uint64_t> authority_rekey_bytes{0};
  std::atomic<std::uint64_t> authority_rekeys_relayed{0};
  std::atomic<std::uint64_t> authority_rekey_bytes_relayed{0};
  std::atomic<std::uint64_t> authority_subscribes{0};  // accepted kSub
  std::atomic<std::uint64_t> authority_syncs{0};       // served kSync
  std::atomic<std::uint64_t> authority_rejects{0};     // kSubErr replies

  // Session-open -> end-of-phase latency, stamped at round completion.
  LatencyHistogram phase1_latency;
  LatencyHistogram phase2_latency;
  LatencyHistogram phase3_latency;
  LatencyHistogram session_latency;  // open -> final round delivered

  /// Adds every counter and histogram of `other` into this block
  /// (relaxed loads/adds — a monotonic snapshot, not a consistent cut;
  /// kMaxGauge rows take the max). The sharded transport folds per-shard
  /// blocks into one scratch block at export time so /metrics stays a
  /// single surface.
  void merge_from(const ServiceMetrics& other) noexcept;

  /// One JSON object with every table row at its key path (schema:
  /// DESIGN.md §8). Gauges are passed in because they are derived from
  /// live tables, not counters.
  [[nodiscard]] std::string to_json(const Gauges& gauges) const;

  /// Every table row as a neutral exposition snapshot, in table order —
  /// obs::prometheus_text(snapshot(g)) is the GET /metrics body.
  [[nodiscard]] obs::MetricsSnapshot snapshot(const Gauges& gauges) const;
};

/// How a metric row renders (Prometheus TYPE) and merges across shards.
enum class MetricKind : std::uint8_t {
  kCounter,    // TYPE counter; summed
  kGauge,      // TYPE gauge; summed
  kMaxGauge,   // TYPE gauge; a high-water mark, max-merged
  kHistogram,  // a LatencyHistogram; buckets, count and sum summed
};

/// One exported metric. Exactly one of counter / gauge / histogram is
/// set: a ServiceMetrics atomic, an export-time Gauges field, or a
/// ServiceMetrics histogram.
struct MetricRow {
  const char* name;  // Prometheus family, e.g. "shs_batch_flushes_total"
  const char* help;
  MetricKind kind;
  const char* json;  // dotted to_json() key path, e.g. "batch.flushes.total"
  std::atomic<std::uint64_t> ServiceMetrics::* counter = nullptr;
  std::uint64_t ServiceMetrics::Gauges::* gauge = nullptr;
  LatencyHistogram ServiceMetrics::* histogram = nullptr;
  // A gauge sampled from a process-wide source (precomp cache, trace
  // recorder, authority engine): every shard reports the same value, so
  // merging takes it once instead of summing.
  bool process_wide = false;
  // Non-null: the sharded server also renders this row per shard as
  // shs_shard_<name without "shs_">{shard="i"}, with this help.
  const char* shard_help = nullptr;
};

/// The metric table, in export order.
[[nodiscard]] std::span<const MetricRow> metric_table() noexcept;

/// One shard's export inputs: its counter block and its gauges.
struct ShardMetrics {
  const ServiceMetrics* block;
  ServiceMetrics::Gauges gauges;
};

/// Folds per-shard exports: every block is merged into `merged`
/// (merge_from), and the returned gauges sum the per-shard rows and take
/// process-wide rows from the first shard.
[[nodiscard]] ServiceMetrics::Gauges fold_shards(
    std::span<const ShardMetrics> shards, ServiceMetrics* merged);

/// Appends the shs_shard_* series of every row that has a shard_help,
/// name-major (one HELP/TYPE block per name), labeled shard="i".
void append_shard_series(std::span<const ShardMetrics> shards,
                         obs::MetricsSnapshot* snapshot);

}  // namespace shs::service
