// The metrics export schema, pinned strictly: metrics_json() must be
// well-formed JSON carrying every documented key (DESIGN.md §8), each
// histogram's buckets must sum to its count, and the Prometheus
// exposition must agree with the JSON on every counter and gauge — the
// two surfaces render one snapshot and can never diverge.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "core/fixture.h"
#include "service/service.h"
#include "support/minijson.h"

namespace shs::service {
namespace {

using core::HandshakeOptions;
using core::testing::TestGroup;
namespace minijson = shs::testing::minijson;

TestGroup& schema_group() {
  static auto* group = [] {
    auto* g = new TestGroup("schema", core::GroupConfig{});
    for (core::MemberId id = 1; id <= 4; ++id) g->admit(id);
    return g;
  }();
  return *group;
}

std::vector<std::unique_ptr<core::HandshakeParticipant>> make_parts(
    std::size_t m, std::string_view seed) {
  const HandshakeOptions options;
  std::vector<std::unique_ptr<core::HandshakeParticipant>> parts;
  for (std::size_t i = 0; i < m; ++i) {
    parts.push_back(schema_group().member(i).handshake_party(
        i, m, options, to_bytes(seed)));
  }
  return parts;
}

/// Asserts the minijson histogram object shape and the bucket-sum
/// invariant; returns its count.
std::uint64_t check_histogram(const minijson::Value& h) {
  const std::uint64_t count = h.at("count").u64();
  EXPECT_NO_THROW((void)h.at("mean_us").num());
  EXPECT_NO_THROW((void)h.at("p50_us").u64());
  EXPECT_NO_THROW((void)h.at("p99_us").u64());
  const minijson::Value& buckets = h.at("buckets");
  EXPECT_EQ(buckets.type, minijson::Value::Type::kArray);
  EXPECT_EQ(buckets.array.size(), LatencyHistogram::kBuckets);
  std::uint64_t sum = 0;
  for (const minijson::Value& b : buckets.array) sum += b.u64();
  EXPECT_EQ(sum, count) << "histogram buckets must sum to count";
  return count;
}

/// The value of a `name value` sample line in a Prometheus exposition.
std::uint64_t prom_value(const std::string& text, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const std::size_t at = text.find(needle);
  EXPECT_NE(at, std::string::npos) << name << " missing from exposition";
  if (at == std::string::npos) return ~std::uint64_t{0};
  return std::stoull(text.substr(at + needle.size()));
}

TEST(MetricsSchema, JsonCarriesEveryDocumentedKeyAndBucketSumsMatch) {
  RendezvousService svc;
  for (const std::size_t m : {2u, 4u}) {
    svc.open_session(make_parts(m, "schema-" + std::to_string(m)));
  }
  svc.pump();

  const std::string json = svc.metrics_json();
  minijson::Value root;
  ASSERT_NO_THROW(root = minijson::parse(json)) << json;

  const minijson::Value& sessions = root.at("sessions");
  EXPECT_EQ(sessions.at("opened").u64(), 2u);
  EXPECT_EQ(sessions.at("confirmed").u64(), 2u);
  EXPECT_EQ(sessions.at("failed").u64(), 0u);
  EXPECT_EQ(sessions.at("expired").u64(), 0u);
  EXPECT_EQ(sessions.at("active").u64(), svc.active_sessions());

  const minijson::Value& frames = root.at("frames");
  EXPECT_GT(frames.at("in").u64(), 0u);
  EXPECT_GT(frames.at("out").u64(), 0u);
  EXPECT_EQ(frames.at("rejected").u64(), 0u);
  EXPECT_GT(frames.at("bytes_in").u64(), 0u);
  EXPECT_GT(frames.at("bytes_out").u64(), 0u);

  EXPECT_GT(root.at("rounds_advanced").u64(), 0u);

  const minijson::Value& transport = root.at("transport");
  EXPECT_NO_THROW((void)transport.at("bytes_in").u64());
  EXPECT_NO_THROW((void)transport.at("bytes_out").u64());
  EXPECT_NO_THROW((void)transport.at("frames_unowned").u64());
  EXPECT_NO_THROW((void)transport.at("write_queue_hwm_bytes").u64());
  EXPECT_EQ(transport.at("handoff_in").u64(), 0u) << "loopback has no shards";
  EXPECT_EQ(transport.at("handoff_out").u64(), 0u);
  const minijson::Value& conns = transport.at("connections");
  EXPECT_NO_THROW((void)conns.at("accepted").u64());
  EXPECT_NO_THROW((void)conns.at("closed").u64());
  EXPECT_NO_THROW((void)conns.at("killed_backpressure").u64());
  EXPECT_NO_THROW((void)conns.at("active").u64());

  // Batched verification is default-on, so the counters must be live:
  // every enqueue either created a unique check or coalesced with one.
  const minijson::Value& batch = root.at("batch");
  const std::uint64_t jobs = batch.at("jobs").u64();
  const std::uint64_t checks = batch.at("checks").u64();
  EXPECT_GT(jobs, 0u);
  EXPECT_GT(checks, 0u);
  EXPECT_EQ(jobs, checks + batch.at("deduped").u64());
  EXPECT_EQ(batch.at("rejected").u64(), 0u);
  const minijson::Value& flushes = batch.at("flushes");
  EXPECT_GT(flushes.at("total").u64(), 0u);
  EXPECT_NO_THROW((void)flushes.at("size").u64());
  EXPECT_NO_THROW((void)flushes.at("deadline").u64());
  EXPECT_EQ(batch.at("bisections").u64(), 0u) << "honest batch must fold";
  EXPECT_EQ(batch.at("individual").u64(), 0u);
  EXPECT_GT(batch.at("max_size").u64(), 0u);
  EXPECT_LE(batch.at("max_size").u64(), checks);

  // The channel block is present (zeroed: no relay runs in a bare
  // service) and strictly keyed.
  const minijson::Value& channel = root.at("channel");
  EXPECT_EQ(channel.at("opened").u64(), 0u);
  EXPECT_EQ(channel.at("closed").u64(), 0u);
  EXPECT_EQ(channel.at("active").u64(), 0u);
  EXPECT_EQ(channel.at("attaches").u64(), 0u);
  EXPECT_EQ(channel.at("records_in").u64(), 0u);
  EXPECT_EQ(channel.at("records_relayed").u64(), 0u);
  EXPECT_EQ(channel.at("bytes_in").u64(), 0u);
  EXPECT_EQ(channel.at("bytes_relayed").u64(), 0u);
  EXPECT_EQ(channel.at("records_unowned").u64(), 0u);
  EXPECT_EQ(channel.at("rekeys").u64(), 0u);

  // The authority block is likewise present and strictly keyed (zeroed:
  // a bare service hosts no group authority).
  const minijson::Value& auth = root.at("authority");
  EXPECT_EQ(auth.at("members").u64(), 0u);
  EXPECT_EQ(auth.at("epoch").u64(), 0u);
  EXPECT_EQ(auth.at("subscribers").u64(), 0u);
  EXPECT_EQ(auth.at("rekeys").u64(), 0u);
  EXPECT_EQ(auth.at("rekey_bytes").u64(), 0u);
  EXPECT_EQ(auth.at("rekeys_relayed").u64(), 0u);
  EXPECT_EQ(auth.at("rekey_bytes_relayed").u64(), 0u);
  EXPECT_EQ(auth.at("subscribes").u64(), 0u);
  EXPECT_EQ(auth.at("syncs").u64(), 0u);
  EXPECT_EQ(auth.at("rejects").u64(), 0u);

  const minijson::Value& precomp = root.at("precomp");
  EXPECT_GT(precomp.at("tables").u64(), 0u);
  EXPECT_NO_THROW((void)precomp.at("hits").u64());
  EXPECT_NO_THROW((void)precomp.at("misses").u64());

  const minijson::Value& latency = root.at("latency");
  EXPECT_EQ(check_histogram(latency.at("phase1")), 2u);
  EXPECT_EQ(check_histogram(latency.at("phase2")), 2u);
  EXPECT_EQ(check_histogram(latency.at("phase3")), 2u);
  EXPECT_EQ(check_histogram(latency.at("session")), 2u);
}

TEST(MetricsSchema, PrometheusExpositionAgreesWithTheJson) {
  RendezvousService svc;
  svc.open_session(make_parts(2, "schema-prom"));
  svc.pump();

  const minijson::Value root = minijson::parse(svc.metrics_json());
  const std::string prom = svc.metrics_prometheus();

  EXPECT_EQ(prom_value(prom, "shs_sessions_opened_total"),
            root.at("sessions").at("opened").u64());
  EXPECT_EQ(prom_value(prom, "shs_sessions_confirmed_total"),
            root.at("sessions").at("confirmed").u64());
  EXPECT_EQ(prom_value(prom, "shs_sessions_active"),
            root.at("sessions").at("active").u64());
  EXPECT_EQ(prom_value(prom, "shs_frames_in_total"),
            root.at("frames").at("in").u64());
  EXPECT_EQ(prom_value(prom, "shs_rounds_advanced_total"),
            root.at("rounds_advanced").u64());
  EXPECT_EQ(prom_value(prom, "shs_connections_active"),
            root.at("transport").at("connections").at("active").u64());
  EXPECT_EQ(prom_value(prom, "shs_frames_handoff_in_total"),
            root.at("transport").at("handoff_in").u64());
  EXPECT_EQ(prom_value(prom, "shs_frames_handoff_out_total"),
            root.at("transport").at("handoff_out").u64());
  EXPECT_EQ(prom_value(prom, "shs_batch_jobs_total"),
            root.at("batch").at("jobs").u64());
  EXPECT_EQ(prom_value(prom, "shs_batch_jobs_deduped_total"),
            root.at("batch").at("deduped").u64());
  EXPECT_EQ(prom_value(prom, "shs_batch_flushes_total"),
            root.at("batch").at("flushes").at("total").u64());
  EXPECT_EQ(prom_value(prom, "shs_batch_checks_total"),
            root.at("batch").at("checks").u64());
  EXPECT_EQ(prom_value(prom, "shs_batch_max_size"),
            root.at("batch").at("max_size").u64());
  EXPECT_EQ(prom_value(prom, "shs_precomp_tables"),
            root.at("precomp").at("tables").u64());
  EXPECT_EQ(prom_value(prom, "shs_channels_opened_total"),
            root.at("channel").at("opened").u64());
  EXPECT_EQ(prom_value(prom, "shs_channels_open"),
            root.at("channel").at("active").u64());
  EXPECT_EQ(prom_value(prom, "shs_channel_records_in_total"),
            root.at("channel").at("records_in").u64());
  EXPECT_EQ(prom_value(prom, "shs_channel_rekeys_total"),
            root.at("channel").at("rekeys").u64());
  EXPECT_EQ(prom_value(prom, "shs_authority_members"),
            root.at("authority").at("members").u64());
  EXPECT_EQ(prom_value(prom, "shs_authority_epoch"),
            root.at("authority").at("epoch").u64());
  EXPECT_EQ(prom_value(prom, "shs_authority_subscribers"),
            root.at("authority").at("subscribers").u64());
  EXPECT_EQ(prom_value(prom, "shs_authority_rekeys_total"),
            root.at("authority").at("rekeys").u64());
  EXPECT_EQ(prom_value(prom, "shs_authority_rekey_bytes_total"),
            root.at("authority").at("rekey_bytes").u64());
  EXPECT_EQ(prom_value(prom, "shs_authority_subscribes_total"),
            root.at("authority").at("subscribes").u64());
  EXPECT_EQ(prom_value(prom, "shs_authority_syncs_total"),
            root.at("authority").at("syncs").u64());
  EXPECT_EQ(prom_value(prom, "shs_authority_rejects_total"),
            root.at("authority").at("rejects").u64());

  // Every table row appears on both surfaces with one value: scalars as
  // `name value`, histograms as their _count. The assertions above stay
  // as the hand-written reference for the table's names and paths.
  for (const MetricRow& row : metric_table()) {
    SCOPED_TRACE(row.name);
    const minijson::Value* node = &root;
    for (std::string_view rest = row.json;;) {
      const std::size_t dot = rest.find('.');
      node = &node->at(std::string(rest.substr(0, dot)));
      if (dot == std::string_view::npos) break;
      rest.remove_prefix(dot + 1);
    }
    if (row.kind == MetricKind::kHistogram) {
      EXPECT_EQ(prom_value(prom, std::string(row.name) + "_count"),
                check_histogram(*node));
    } else {
      EXPECT_EQ(prom_value(prom, row.name), node->u64());
      const std::string type = std::string("# TYPE ") + row.name +
                               (row.kind == MetricKind::kCounter ? " counter\n"
                                                                 : " gauge\n");
      EXPECT_NE(prom.find(type), std::string::npos) << type;
    }
  }

  // Histogram invariants: cumulative buckets end at count; sum present.
  const std::uint64_t count =
      prom_value(prom, "shs_session_latency_us_count");
  EXPECT_EQ(count, root.at("latency").at("session").at("count").u64());
  const std::string inf = "shs_session_latency_us_bucket{le=\"+Inf\"} ";
  const std::size_t at = prom.find(inf);
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(std::stoull(prom.substr(at + inf.size())), count);
  EXPECT_NE(prom.find("shs_session_latency_us_sum "), std::string::npos);

  // Cumulative buckets never decrease.
  std::uint64_t prev = 0;
  std::size_t pos = 0;
  const std::string bucket = "shs_session_latency_us_bucket{le=";
  while ((pos = prom.find(bucket, pos)) != std::string::npos) {
    const std::size_t close = prom.find("} ", pos);
    ASSERT_NE(close, std::string::npos);
    const std::uint64_t v = std::stoull(prom.substr(close + 2));
    EXPECT_GE(v, prev);
    prev = v;
    pos = close;
  }
  EXPECT_EQ(prev, count);
}

TEST(MetricsSchema, HistogramMergeAndResetFoldShards) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.record(std::chrono::microseconds(3));
  a.record(std::chrono::microseconds(900));
  b.record(std::chrono::microseconds(40));

  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum_us(), 943u);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    sum += a.bucket_count(i);
  }
  EXPECT_EQ(sum, 3u);
  EXPECT_EQ(b.count(), 1u) << "merge must not disturb the source";

  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.sum_us(), 0u);
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(a.bucket_count(i), 0u);
  }
}

TEST(MetricsSchema, MergeFromFoldsCountersMaxesAndHistograms) {
  ServiceMetrics a;
  ServiceMetrics b;
  a.sessions_opened = 3;
  b.sessions_opened = 4;
  a.frames_handoff_in = 1;
  b.frames_handoff_out = 2;
  a.write_queue_hwm = 100;
  b.write_queue_hwm = 250;  // high-water marks take the max, not the sum
  a.batch_max_size = 9;
  b.batch_max_size = 5;
  a.session_latency.record(std::chrono::microseconds(10));
  b.session_latency.record(std::chrono::microseconds(20));
  a.authority_rekeys = 2;
  b.authority_rekeys = 5;
  b.authority_rekey_bytes_relayed = 64;

  a.merge_from(b);
  EXPECT_EQ(a.sessions_opened.load(), 7u);
  EXPECT_EQ(a.authority_rekeys.load(), 7u);
  EXPECT_EQ(a.authority_rekey_bytes_relayed.load(), 64u);
  EXPECT_EQ(a.frames_handoff_in.load(), 1u);
  EXPECT_EQ(a.frames_handoff_out.load(), 2u);
  EXPECT_EQ(a.write_queue_hwm.load(), 250u);
  EXPECT_EQ(a.batch_max_size.load(), 9u);
  EXPECT_EQ(a.session_latency.count(), 2u);
  EXPECT_EQ(b.sessions_opened.load(), 4u) << "source must be untouched";
}

TEST(MetricsSchema, LabeledEntriesShareOneHelpTypeBlock) {
  obs::MetricsSnapshot s;
  s.scalars.push_back({"shs_shard_active_sessions", "Per-shard sessions",
                       /*gauge=*/true, 5, "shard=\"0\""});
  s.scalars.push_back({"shs_shard_active_sessions", "Per-shard sessions",
                       /*gauge=*/true, 7, "shard=\"1\""});
  const std::string text = obs::prometheus_text(s);
  EXPECT_NE(text.find("shs_shard_active_sessions{shard=\"0\"} 5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("shs_shard_active_sessions{shard=\"1\"} 7\n"),
            std::string::npos);
  // HELP/TYPE rendered once for the pair: valid 0.0.4 exposition.
  std::size_t helps = 0;
  std::size_t pos = 0;
  while ((pos = text.find("# HELP shs_shard_active_sessions", pos)) !=
         std::string::npos) {
    ++helps;
    ++pos;
  }
  EXPECT_EQ(helps, 1u);
}

}  // namespace
}  // namespace shs::service
