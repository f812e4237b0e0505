// Golden export pins: the exact bytes of the GET /metrics body, the full
// set of metrics_json() (key path, value) pairs and the per-shard
// shs_shard_* families of a 2-shard server, each for a metrics block in
// which every counter holds a distinct value, every histogram is
// non-empty and the gauges are fixed. Any change to a name, help text,
// type, key path or value shows up here as a diff against the golden
// text; JSON key order and whitespace are deliberately not pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "service/metrics.h"
#include "support/minijson.h"
#include "transport/server.h"

namespace shs::service {
namespace {

namespace minijson = shs::testing::minijson;

/// Every counter of `m`, in declaration order.
std::vector<std::atomic<std::uint64_t>*> counters_of(ServiceMetrics& m) {
  return {&m.sessions_opened,
          &m.sessions_confirmed,
          &m.sessions_failed,
          &m.sessions_expired,
          &m.rounds_advanced,
          &m.frames_in,
          &m.bytes_in,
          &m.frames_rejected,
          &m.frames_out,
          &m.bytes_out,
          &m.tcp_bytes_in,
          &m.tcp_bytes_out,
          &m.connections_accepted,
          &m.connections_closed,
          &m.connections_killed_backpressure,
          &m.frames_unowned,
          &m.write_queue_hwm,
          &m.frames_handoff_in,
          &m.frames_handoff_out,
          &m.batch_jobs,
          &m.batch_jobs_deduped,
          &m.batch_jobs_rejected,
          &m.batch_flushes,
          &m.batch_flushes_size,
          &m.batch_flushes_deadline,
          &m.batch_checks,
          &m.batch_bisections,
          &m.batch_individual,
          &m.batch_max_size,
          &m.channels_opened,
          &m.channels_closed,
          &m.channel_attaches,
          &m.channel_records_in,
          &m.channel_records_relayed,
          &m.channel_bytes_in,
          &m.channel_bytes_relayed,
          &m.channel_records_unowned,
          &m.channel_rekeys,
          &m.authority_rekeys,
          &m.authority_rekey_bytes,
          &m.authority_rekeys_relayed,
          &m.authority_rekey_bytes_relayed,
          &m.authority_subscribes,
          &m.authority_syncs,
          &m.authority_rejects,
          &m.tcp_writes};
}

/// Counter i holds base + 7i; histogram h records h + 1 durations.
void fill(ServiceMetrics& m, std::uint64_t base) {
  const auto counters = counters_of(m);
  for (std::size_t i = 0; i < counters.size(); ++i) {
    counters[i]->store(base + 7 * i);
  }
  LatencyHistogram* hists[] = {&m.phase1_latency, &m.phase2_latency,
                               &m.phase3_latency, &m.session_latency};
  for (std::size_t h = 0; h < 4; ++h) {
    for (std::size_t k = 0; k <= h; ++k) {
      hists[h]->record(std::chrono::microseconds(3 + 100 * h + 1000 * k));
    }
  }
}

ServiceMetrics::Gauges fixed_gauges() {
  ServiceMetrics::Gauges g;
  g.active_sessions = 501;
  g.active_connections = 502;
  g.channels_open = 503;
  g.precomp_tables = 504;
  g.precomp_hits = 505;
  g.precomp_misses = 506;
  g.authority_members = 507;
  g.authority_epoch = 508;
  g.authority_subscribers = 509;
  g.trace_recorded = 510;
  g.trace_dropped = 511;
  g.trace_sampling_skipped = 512;
  return g;
}

/// "path value" lines for every leaf of a parsed JSON document, sorted.
void flatten(const minijson::Value& v, const std::string& path,
             std::vector<std::string>* out) {
  using Type = minijson::Value::Type;
  const std::string dot = path.empty() ? "" : path + ".";
  if (v.type == Type::kObject) {
    for (const auto& [key, child] : v.object) flatten(child, dot + key, out);
  } else if (v.type == Type::kArray) {
    for (std::size_t i = 0; i < v.array.size(); ++i) {
      flatten(v.array[i], dot + std::to_string(i), out);
    }
  } else {
    char buf[64];
    if (v.number == std::floor(v.number)) {
      std::snprintf(buf, sizeof buf, "%llu",
                    static_cast<unsigned long long>(v.number));
    } else {
      std::snprintf(buf, sizeof buf, "%.6g", v.number);
    }
    out->push_back(path + " " + buf);
  }
}

std::string joined_lines(std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

// The GET /metrics body of a single service, byte for byte.
constexpr const char* kGoldenPrometheus = R"GOLDEN(# HELP shs_sessions_opened_total Handshake sessions opened
# TYPE shs_sessions_opened_total counter
shs_sessions_opened_total 1
# HELP shs_sessions_confirmed_total Sessions that confirmed at least one partner
# TYPE shs_sessions_confirmed_total counter
shs_sessions_confirmed_total 8
# HELP shs_sessions_failed_total Sessions that completed without a clique
# TYPE shs_sessions_failed_total counter
shs_sessions_failed_total 15
# HELP shs_sessions_expired_total Sessions expired at the deadline
# TYPE shs_sessions_expired_total counter
shs_sessions_expired_total 22
# HELP shs_sessions_active Sessions currently in the session table
# TYPE shs_sessions_active gauge
shs_sessions_active 501
# HELP shs_rounds_advanced_total Protocol rounds advanced
# TYPE shs_rounds_advanced_total counter
shs_rounds_advanced_total 29
# HELP shs_frames_in_total Frames accepted into sessions
# TYPE shs_frames_in_total counter
shs_frames_in_total 36
# HELP shs_frames_out_total Frames emitted to the egress sink
# TYPE shs_frames_out_total counter
shs_frames_out_total 57
# HELP shs_frames_rejected_total Frames rejected before slotting
# TYPE shs_frames_rejected_total counter
shs_frames_rejected_total 50
# HELP shs_frame_bytes_in_total Encoded bytes of accepted frames
# TYPE shs_frame_bytes_in_total counter
shs_frame_bytes_in_total 43
# HELP shs_frame_bytes_out_total Encoded bytes of emitted frames
# TYPE shs_frame_bytes_out_total counter
shs_frame_bytes_out_total 64
# HELP shs_tcp_bytes_in_total Raw bytes read from transport sockets
# TYPE shs_tcp_bytes_in_total counter
shs_tcp_bytes_in_total 71
# HELP shs_tcp_bytes_out_total Raw bytes written to transport sockets
# TYPE shs_tcp_bytes_out_total counter
shs_tcp_bytes_out_total 78
# HELP shs_tcp_writes_total Successful write calls on transport sockets
# TYPE shs_tcp_writes_total counter
shs_tcp_writes_total 316
# HELP shs_connections_accepted_total Transport connections accepted
# TYPE shs_connections_accepted_total counter
shs_connections_accepted_total 85
# HELP shs_connections_closed_total Transport connections closed
# TYPE shs_connections_closed_total counter
shs_connections_closed_total 92
# HELP shs_connections_killed_backpressure_total Connections killed at the write-queue kill watermark
# TYPE shs_connections_killed_backpressure_total counter
shs_connections_killed_backpressure_total 99
# HELP shs_connections_active Transport connections currently open
# TYPE shs_connections_active gauge
shs_connections_active 502
# HELP shs_frames_unowned_total Frames dropped for session-ownership violations
# TYPE shs_frames_unowned_total counter
shs_frames_unowned_total 106
# HELP shs_write_queue_hwm_bytes High-water mark across connection write queues
# TYPE shs_write_queue_hwm_bytes gauge
shs_write_queue_hwm_bytes 113
# HELP shs_frames_handoff_in_total Session frames received from another shard's connection
# TYPE shs_frames_handoff_in_total counter
shs_frames_handoff_in_total 120
# HELP shs_frames_handoff_out_total Session frames handed off to another shard's service
# TYPE shs_frames_handoff_out_total counter
shs_frames_handoff_out_total 127
# HELP shs_batch_jobs_total Verify jobs enqueued for batching
# TYPE shs_batch_jobs_total counter
shs_batch_jobs_total 134
# HELP shs_batch_jobs_deduped_total Verify jobs coalesced with an identical pending job
# TYPE shs_batch_jobs_deduped_total counter
shs_batch_jobs_deduped_total 141
# HELP shs_batch_jobs_rejected_total Batched verify jobs that resolved to reject
# TYPE shs_batch_jobs_rejected_total counter
shs_batch_jobs_rejected_total 148
# HELP shs_batch_flushes_total Batch verifier flushes
# TYPE shs_batch_flushes_total counter
shs_batch_flushes_total 155
# HELP shs_batch_flushes_size_total Flushes triggered by the max-pending threshold
# TYPE shs_batch_flushes_size_total counter
shs_batch_flushes_size_total 162
# HELP shs_batch_flushes_deadline_total Flushes triggered by the deadline poll
# TYPE shs_batch_flushes_deadline_total counter
shs_batch_flushes_deadline_total 169
# HELP shs_batch_checks_total Unique prepared checks folded across all flushes
# TYPE shs_batch_checks_total counter
shs_batch_checks_total 176
# HELP shs_batch_bisections_total Failed-fold bisection splits during batch verification
# TYPE shs_batch_bisections_total counter
shs_batch_bisections_total 183
# HELP shs_batch_individual_verifies_total Singleton fallback verifications after bisection
# TYPE shs_batch_individual_verifies_total counter
shs_batch_individual_verifies_total 190
# HELP shs_batch_max_size High-water mark of unique checks per flush
# TYPE shs_batch_max_size gauge
shs_batch_max_size 197
# HELP shs_channels_opened_total Post-handshake channels registered with the relay
# TYPE shs_channels_opened_total counter
shs_channels_opened_total 204
# HELP shs_channels_closed_total Post-handshake channels torn down or expired
# TYPE shs_channels_closed_total counter
shs_channels_closed_total 211
# HELP shs_channels_open Channels currently registered with the relay
# TYPE shs_channels_open gauge
shs_channels_open 503
# HELP shs_channel_attaches_total Accepted channel attach requests
# TYPE shs_channel_attaches_total counter
shs_channel_attaches_total 218
# HELP shs_channel_records_in_total Channel records received from attached members
# TYPE shs_channel_records_in_total counter
shs_channel_records_in_total 225
# HELP shs_channel_records_relayed_total Channel records fanned out to clique members
# TYPE shs_channel_records_relayed_total counter
shs_channel_records_relayed_total 232
# HELP shs_channel_bytes_in_total Record payload bytes received from attached members
# TYPE shs_channel_bytes_in_total counter
shs_channel_bytes_in_total 239
# HELP shs_channel_bytes_relayed_total Record payload bytes fanned out to clique members
# TYPE shs_channel_bytes_relayed_total counter
shs_channel_bytes_relayed_total 246
# HELP shs_channel_records_unowned_total Channel records dropped for attach-ownership violations
# TYPE shs_channel_records_unowned_total counter
shs_channel_records_unowned_total 253
# HELP shs_channel_rekeys_total REKEY records observed by the relay
# TYPE shs_channel_rekeys_total counter
shs_channel_rekeys_total 260
# HELP shs_authority_rekeys_total Rekey broadcasts issued by the group authority
# TYPE shs_authority_rekeys_total counter
shs_authority_rekeys_total 267
# HELP shs_authority_rekey_bytes_total Encoded bytes of issued rekey broadcasts
# TYPE shs_authority_rekey_bytes_total counter
shs_authority_rekey_bytes_total 274
# HELP shs_authority_rekeys_relayed_total Rekey broadcasts fanned out to subscribed connections
# TYPE shs_authority_rekeys_relayed_total counter
shs_authority_rekeys_relayed_total 281
# HELP shs_authority_rekey_bytes_relayed_total Encoded rekey bytes fanned out to subscribed connections
# TYPE shs_authority_rekey_bytes_relayed_total counter
shs_authority_rekey_bytes_relayed_total 288
# HELP shs_authority_subscribes_total Accepted authority subscribe requests
# TYPE shs_authority_subscribes_total counter
shs_authority_subscribes_total 295
# HELP shs_authority_syncs_total Member re-sync snapshots served by the authority
# TYPE shs_authority_syncs_total counter
shs_authority_syncs_total 302
# HELP shs_authority_rejects_total Authority subscribe/sync requests rejected
# TYPE shs_authority_rejects_total counter
shs_authority_rejects_total 309
# HELP shs_authority_members Members currently in the authority's group
# TYPE shs_authority_members gauge
shs_authority_members 507
# HELP shs_authority_epoch Current CGKD epoch of the group authority
# TYPE shs_authority_epoch gauge
shs_authority_epoch 508
# HELP shs_authority_subscribers Connections subscribed to rekey broadcasts
# TYPE shs_authority_subscribers gauge
shs_authority_subscribers 509
# HELP shs_precomp_tables Fixed-base tables in the process-wide cache
# TYPE shs_precomp_tables gauge
shs_precomp_tables 504
# HELP shs_precomp_hits Process-wide precomputation cache hits
# TYPE shs_precomp_hits gauge
shs_precomp_hits 505
# HELP shs_precomp_misses Process-wide precomputation cache misses
# TYPE shs_precomp_misses gauge
shs_precomp_misses 506
# HELP shs_trace_records_total Flight-recorder records accepted
# TYPE shs_trace_records_total counter
shs_trace_records_total 510
# HELP shs_trace_dropped_total Flight-recorder records overwritten before export (ring wrap)
# TYPE shs_trace_dropped_total counter
shs_trace_dropped_total 511
# HELP shs_trace_sampling_skipped_total Flight-recorder record calls rejected by the sampling filter
# TYPE shs_trace_sampling_skipped_total counter
shs_trace_sampling_skipped_total 512
# HELP shs_phase1_latency_us Session open to end of Phase I
# TYPE shs_phase1_latency_us histogram
shs_phase1_latency_us_bucket{le="1"} 0
shs_phase1_latency_us_bucket{le="3"} 1
shs_phase1_latency_us_bucket{le="7"} 1
shs_phase1_latency_us_bucket{le="15"} 1
shs_phase1_latency_us_bucket{le="31"} 1
shs_phase1_latency_us_bucket{le="63"} 1
shs_phase1_latency_us_bucket{le="127"} 1
shs_phase1_latency_us_bucket{le="255"} 1
shs_phase1_latency_us_bucket{le="511"} 1
shs_phase1_latency_us_bucket{le="1023"} 1
shs_phase1_latency_us_bucket{le="2047"} 1
shs_phase1_latency_us_bucket{le="4095"} 1
shs_phase1_latency_us_bucket{le="8191"} 1
shs_phase1_latency_us_bucket{le="16383"} 1
shs_phase1_latency_us_bucket{le="32767"} 1
shs_phase1_latency_us_bucket{le="65535"} 1
shs_phase1_latency_us_bucket{le="131071"} 1
shs_phase1_latency_us_bucket{le="262143"} 1
shs_phase1_latency_us_bucket{le="524287"} 1
shs_phase1_latency_us_bucket{le="1048575"} 1
shs_phase1_latency_us_bucket{le="2097151"} 1
shs_phase1_latency_us_bucket{le="4194303"} 1
shs_phase1_latency_us_bucket{le="8388607"} 1
shs_phase1_latency_us_bucket{le="+Inf"} 1
shs_phase1_latency_us_count 1
shs_phase1_latency_us_sum 3
# HELP shs_phase2_latency_us Session open to end of Phase II
# TYPE shs_phase2_latency_us histogram
shs_phase2_latency_us_bucket{le="1"} 0
shs_phase2_latency_us_bucket{le="3"} 0
shs_phase2_latency_us_bucket{le="7"} 0
shs_phase2_latency_us_bucket{le="15"} 0
shs_phase2_latency_us_bucket{le="31"} 0
shs_phase2_latency_us_bucket{le="63"} 0
shs_phase2_latency_us_bucket{le="127"} 1
shs_phase2_latency_us_bucket{le="255"} 1
shs_phase2_latency_us_bucket{le="511"} 1
shs_phase2_latency_us_bucket{le="1023"} 1
shs_phase2_latency_us_bucket{le="2047"} 2
shs_phase2_latency_us_bucket{le="4095"} 2
shs_phase2_latency_us_bucket{le="8191"} 2
shs_phase2_latency_us_bucket{le="16383"} 2
shs_phase2_latency_us_bucket{le="32767"} 2
shs_phase2_latency_us_bucket{le="65535"} 2
shs_phase2_latency_us_bucket{le="131071"} 2
shs_phase2_latency_us_bucket{le="262143"} 2
shs_phase2_latency_us_bucket{le="524287"} 2
shs_phase2_latency_us_bucket{le="1048575"} 2
shs_phase2_latency_us_bucket{le="2097151"} 2
shs_phase2_latency_us_bucket{le="4194303"} 2
shs_phase2_latency_us_bucket{le="8388607"} 2
shs_phase2_latency_us_bucket{le="+Inf"} 2
shs_phase2_latency_us_count 2
shs_phase2_latency_us_sum 1206
# HELP shs_phase3_latency_us Session open to end of Phase III
# TYPE shs_phase3_latency_us histogram
shs_phase3_latency_us_bucket{le="1"} 0
shs_phase3_latency_us_bucket{le="3"} 0
shs_phase3_latency_us_bucket{le="7"} 0
shs_phase3_latency_us_bucket{le="15"} 0
shs_phase3_latency_us_bucket{le="31"} 0
shs_phase3_latency_us_bucket{le="63"} 0
shs_phase3_latency_us_bucket{le="127"} 0
shs_phase3_latency_us_bucket{le="255"} 1
shs_phase3_latency_us_bucket{le="511"} 1
shs_phase3_latency_us_bucket{le="1023"} 1
shs_phase3_latency_us_bucket{le="2047"} 2
shs_phase3_latency_us_bucket{le="4095"} 3
shs_phase3_latency_us_bucket{le="8191"} 3
shs_phase3_latency_us_bucket{le="16383"} 3
shs_phase3_latency_us_bucket{le="32767"} 3
shs_phase3_latency_us_bucket{le="65535"} 3
shs_phase3_latency_us_bucket{le="131071"} 3
shs_phase3_latency_us_bucket{le="262143"} 3
shs_phase3_latency_us_bucket{le="524287"} 3
shs_phase3_latency_us_bucket{le="1048575"} 3
shs_phase3_latency_us_bucket{le="2097151"} 3
shs_phase3_latency_us_bucket{le="4194303"} 3
shs_phase3_latency_us_bucket{le="8388607"} 3
shs_phase3_latency_us_bucket{le="+Inf"} 3
shs_phase3_latency_us_count 3
shs_phase3_latency_us_sum 3609
# HELP shs_session_latency_us Session open to final round delivered
# TYPE shs_session_latency_us histogram
shs_session_latency_us_bucket{le="1"} 0
shs_session_latency_us_bucket{le="3"} 0
shs_session_latency_us_bucket{le="7"} 0
shs_session_latency_us_bucket{le="15"} 0
shs_session_latency_us_bucket{le="31"} 0
shs_session_latency_us_bucket{le="63"} 0
shs_session_latency_us_bucket{le="127"} 0
shs_session_latency_us_bucket{le="255"} 0
shs_session_latency_us_bucket{le="511"} 1
shs_session_latency_us_bucket{le="1023"} 1
shs_session_latency_us_bucket{le="2047"} 2
shs_session_latency_us_bucket{le="4095"} 4
shs_session_latency_us_bucket{le="8191"} 4
shs_session_latency_us_bucket{le="16383"} 4
shs_session_latency_us_bucket{le="32767"} 4
shs_session_latency_us_bucket{le="65535"} 4
shs_session_latency_us_bucket{le="131071"} 4
shs_session_latency_us_bucket{le="262143"} 4
shs_session_latency_us_bucket{le="524287"} 4
shs_session_latency_us_bucket{le="1048575"} 4
shs_session_latency_us_bucket{le="2097151"} 4
shs_session_latency_us_bucket{le="4194303"} 4
shs_session_latency_us_bucket{le="8388607"} 4
shs_session_latency_us_bucket{le="+Inf"} 4
shs_session_latency_us_count 4
shs_session_latency_us_sum 7212
)GOLDEN";

// Every (key path, value) pair of metrics_json(), sorted by path.
constexpr const char* kGoldenJson = R"GOLDEN(authority.epoch 508
authority.members 507
authority.rejects 309
authority.rekey_bytes 274
authority.rekey_bytes_relayed 288
authority.rekeys 267
authority.rekeys_relayed 281
authority.subscribers 509
authority.subscribes 295
authority.syncs 302
batch.bisections 183
batch.checks 176
batch.deduped 141
batch.flushes.deadline 169
batch.flushes.size 162
batch.flushes.total 155
batch.individual 190
batch.jobs 134
batch.max_size 197
batch.rejected 148
channel.active 503
channel.attaches 218
channel.bytes_in 239
channel.bytes_relayed 246
channel.closed 211
channel.opened 204
channel.records_in 225
channel.records_relayed 232
channel.records_unowned 253
channel.rekeys 260
frames.bytes_in 43
frames.bytes_out 64
frames.in 36
frames.out 57
frames.rejected 50
latency.phase1.buckets.0 0
latency.phase1.buckets.1 1
latency.phase1.buckets.10 0
latency.phase1.buckets.11 0
latency.phase1.buckets.12 0
latency.phase1.buckets.13 0
latency.phase1.buckets.14 0
latency.phase1.buckets.15 0
latency.phase1.buckets.16 0
latency.phase1.buckets.17 0
latency.phase1.buckets.18 0
latency.phase1.buckets.19 0
latency.phase1.buckets.2 0
latency.phase1.buckets.20 0
latency.phase1.buckets.21 0
latency.phase1.buckets.22 0
latency.phase1.buckets.23 0
latency.phase1.buckets.3 0
latency.phase1.buckets.4 0
latency.phase1.buckets.5 0
latency.phase1.buckets.6 0
latency.phase1.buckets.7 0
latency.phase1.buckets.8 0
latency.phase1.buckets.9 0
latency.phase1.count 1
latency.phase1.mean_us 3
latency.phase1.p50_us 3
latency.phase1.p99_us 3
latency.phase2.buckets.0 0
latency.phase2.buckets.1 0
latency.phase2.buckets.10 1
latency.phase2.buckets.11 0
latency.phase2.buckets.12 0
latency.phase2.buckets.13 0
latency.phase2.buckets.14 0
latency.phase2.buckets.15 0
latency.phase2.buckets.16 0
latency.phase2.buckets.17 0
latency.phase2.buckets.18 0
latency.phase2.buckets.19 0
latency.phase2.buckets.2 0
latency.phase2.buckets.20 0
latency.phase2.buckets.21 0
latency.phase2.buckets.22 0
latency.phase2.buckets.23 0
latency.phase2.buckets.3 0
latency.phase2.buckets.4 0
latency.phase2.buckets.5 0
latency.phase2.buckets.6 1
latency.phase2.buckets.7 0
latency.phase2.buckets.8 0
latency.phase2.buckets.9 0
latency.phase2.count 2
latency.phase2.mean_us 603
latency.phase2.p50_us 2047
latency.phase2.p99_us 2047
latency.phase3.buckets.0 0
latency.phase3.buckets.1 0
latency.phase3.buckets.10 1
latency.phase3.buckets.11 1
latency.phase3.buckets.12 0
latency.phase3.buckets.13 0
latency.phase3.buckets.14 0
latency.phase3.buckets.15 0
latency.phase3.buckets.16 0
latency.phase3.buckets.17 0
latency.phase3.buckets.18 0
latency.phase3.buckets.19 0
latency.phase3.buckets.2 0
latency.phase3.buckets.20 0
latency.phase3.buckets.21 0
latency.phase3.buckets.22 0
latency.phase3.buckets.23 0
latency.phase3.buckets.3 0
latency.phase3.buckets.4 0
latency.phase3.buckets.5 0
latency.phase3.buckets.6 0
latency.phase3.buckets.7 1
latency.phase3.buckets.8 0
latency.phase3.buckets.9 0
latency.phase3.count 3
latency.phase3.mean_us 1200
latency.phase3.p50_us 2047
latency.phase3.p99_us 4095
latency.session.buckets.0 0
latency.session.buckets.1 0
latency.session.buckets.10 1
latency.session.buckets.11 2
latency.session.buckets.12 0
latency.session.buckets.13 0
latency.session.buckets.14 0
latency.session.buckets.15 0
latency.session.buckets.16 0
latency.session.buckets.17 0
latency.session.buckets.18 0
latency.session.buckets.19 0
latency.session.buckets.2 0
latency.session.buckets.20 0
latency.session.buckets.21 0
latency.session.buckets.22 0
latency.session.buckets.23 0
latency.session.buckets.3 0
latency.session.buckets.4 0
latency.session.buckets.5 0
latency.session.buckets.6 0
latency.session.buckets.7 0
latency.session.buckets.8 1
latency.session.buckets.9 0
latency.session.count 4
latency.session.mean_us 1800
latency.session.p50_us 4095
latency.session.p99_us 4095
precomp.hits 505
precomp.misses 506
precomp.tables 504
rounds_advanced 29
sessions.active 501
sessions.confirmed 8
sessions.expired 22
sessions.failed 15
sessions.opened 1
trace.dropped 511
trace.recorded 510
trace.sampling_skipped 512
transport.bytes_in 71
transport.bytes_out 78
transport.connections.accepted 85
transport.connections.active 502
transport.connections.closed 92
transport.connections.killed_backpressure 99
transport.frames_unowned 106
transport.handoff_in 120
transport.handoff_out 127
transport.write_queue_hwm_bytes 113
transport.writes 316
)GOLDEN";

// The shs_shard_* families of a 2-shard server, one block per family
// (HELP, TYPE, samples), blocks sorted by name.
constexpr const char* kGoldenShardFamilies = R"GOLDEN(# HELP shs_shard_authority_rekeys_relayed_total Rekey broadcasts one shard's hub fanned out
# TYPE shs_shard_authority_rekeys_relayed_total counter
shs_shard_authority_rekeys_relayed_total{shard="0"} 1280
shs_shard_authority_rekeys_relayed_total{shard="1"} 2280
# HELP shs_shard_authority_subscribers Rekey-broadcast subscriptions on one shard
# TYPE shs_shard_authority_subscribers gauge
shs_shard_authority_subscribers{shard="0"} 0
shs_shard_authority_subscribers{shard="1"} 0
# HELP shs_shard_channel_records_in_total Channel records received by one shard's hub
# TYPE shs_shard_channel_records_in_total counter
shs_shard_channel_records_in_total{shard="0"} 1224
shs_shard_channel_records_in_total{shard="1"} 2224
# HELP shs_shard_channels_open Relay channels registered on one shard
# TYPE shs_shard_channels_open gauge
shs_shard_channels_open{shard="0"} 0
shs_shard_channels_open{shard="1"} 0
# HELP shs_shard_connections_active Transport connections open on one shard
# TYPE shs_shard_connections_active gauge
shs_shard_connections_active{shard="0"} 0
shs_shard_connections_active{shard="1"} 0
# HELP shs_shard_frames_handoff_in_total Frames this shard received from another shard's connection
# TYPE shs_shard_frames_handoff_in_total counter
shs_shard_frames_handoff_in_total{shard="0"} 1119
shs_shard_frames_handoff_in_total{shard="1"} 2119
# HELP shs_shard_frames_handoff_out_total Frames this shard handed off to another shard's service
# TYPE shs_shard_frames_handoff_out_total counter
shs_shard_frames_handoff_out_total{shard="0"} 1126
shs_shard_frames_handoff_out_total{shard="1"} 2126
# HELP shs_shard_sessions_active Sessions active on one shard
# TYPE shs_shard_sessions_active gauge
shs_shard_sessions_active{shard="0"} 0
shs_shard_sessions_active{shard="1"} 0
# HELP shs_shard_sessions_opened_total Handshake sessions opened on one shard
# TYPE shs_shard_sessions_opened_total counter
shs_shard_sessions_opened_total{shard="0"} 1000
shs_shard_sessions_opened_total{shard="1"} 2000
)GOLDEN";

TEST(MetricsGolden, PrometheusBodyIsPinnedByteForByte) {
  ServiceMetrics m;
  fill(m, 1);
  const std::string text = obs::prometheus_text(m.snapshot(fixed_gauges()));
  EXPECT_EQ(text, kGoldenPrometheus);
}

TEST(MetricsGolden, JsonKeyPathsAndValuesArePinned) {
  ServiceMetrics m;
  fill(m, 1);
  std::vector<std::string> pairs;
  flatten(minijson::parse(m.to_json(fixed_gauges())), "", &pairs);
  EXPECT_EQ(joined_lines(pairs), kGoldenJson);
}

TEST(MetricsGolden, PerShardFamiliesOfATwoShardServerArePinned) {
  transport::ServerOptions so;
  so.num_shards = 2;
  using Parties = std::vector<std::unique_ptr<core::HandshakeParticipant>>;
  transport::TransportServer server(so, {}, [](BytesView) -> Parties {
    throw ProtocolError("no sessions are opened here");
  });
  fill(server.service(0).metrics(), 1000);
  fill(server.service(1).metrics(), 2000);

  // Group the shs_shard_* lines into per-family blocks; only the order
  // of whole families is left unpinned.
  std::map<std::string, std::string> families;
  std::istringstream body(server.metrics_prometheus());
  std::string line;
  while (std::getline(body, line)) {
    std::string name = line;
    if (name.rfind("# HELP ", 0) == 0 || name.rfind("# TYPE ", 0) == 0) {
      name = name.substr(7);
    }
    if (name.rfind("shs_shard_", 0) != 0) continue;
    name = name.substr(0, name.find_first_of(" {"));
    families[name] += line + "\n";
  }
  std::string blocks;
  for (const auto& [name, block] : families) blocks += block;
  EXPECT_EQ(blocks, kGoldenShardFamilies);
}

}  // namespace
}  // namespace shs::service
