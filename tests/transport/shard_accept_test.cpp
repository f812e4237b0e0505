// Shard construction and accept-dealing properties: num_shards is
// validated at construction (0 rejected, egress stays transport-owned),
// the default num_shards = 1 server is byte-identical to the pre-shard
// single-reactor server (dense sids, equal outcomes, metrics exports
// that are the service's own exports verbatim), accepted fds are dealt
// round-robin with bounded imbalance and every connection lives on
// exactly one shard, and connection churn never confuses the dealing or
// subsequent handshakes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fixture.h"
#include "shard_fixture.h"
#include "transport/client.h"
#include "transport/server.h"

namespace shs::transport {
namespace {

using testing::expect_outcomes_equal;
using testing::group_factory;
using testing::make_request;
using testing::serial_twin;
using testing::shard_eventually;

ClientOptions client_for(const TransportServer& server) {
  ClientOptions options;
  options.port = server.port();
  return options;
}

TEST(ShardAccept, ZeroShardsIsRejectedAtConstruction) {
  ServerOptions so;
  so.num_shards = 0;
  EXPECT_THROW(TransportServer(so, {}, group_factory()), ProtocolError);
}

TEST(ShardAccept, EgressStaysOwnedByTheTransport) {
  struct NullSink final : service::FrameSink {
    void on_frame(const service::Frame&) override {}
  } sink;

  service::ServiceOptions svc;
  svc.egress = &sink;
  EXPECT_THROW(TransportServer({}, svc, group_factory()), ProtocolError);

  ServerOptions so;
  so.num_shards = 2;
  so.per_shard_options = [&sink](std::size_t, service::ServiceOptions& s) {
    s.egress = &sink;
  };
  EXPECT_THROW(TransportServer(so, {}, group_factory()), ProtocolError);
}

// The equality regression the sharding refactor is pinned by: with the
// default num_shards = 1 nothing may differ from the pre-shard server —
// session ids count 1, 2, 3, ... densely, outcomes equal the serial
// driver, and the server's merged metrics exports are the single
// service's own exports byte-for-byte.
TEST(ShardAccept, SingleShardIsByteIdenticalToTheUnshardedServer) {
  ServerOptions so;
  so.auto_close_sessions = false;
  TransportServer server(so, {}, group_factory());
  server.start();
  ASSERT_EQ(server.num_shards(), 1u);

  std::uint64_t expected_sid = 1;
  for (const std::uint32_t m : {2u, 4u}) {
    for (const bool scheme2 : {false, true}) {
      SCOPED_TRACE("m=" + std::to_string(m) +
                   (scheme2 ? " scheme2" : " scheme1"));
      const OpenRequest request = make_request(
          m, scheme2,
          "shard-n1-" + std::to_string(m) + (scheme2 ? "-s2" : "-s1"));
      Client client(client_for(server));
      client.connect();
      const std::uint64_t sid = client.open(request);
      EXPECT_EQ(sid, expected_sid++);  // dense, stride 1
      EXPECT_EQ(server.home_shard_of(sid), 0u);
      client.run();
      expect_outcomes_equal(server.outcomes(sid), serial_twin(request));
    }
  }

  // The last client's close reaches the reactor asynchronously: wait until
  // every connection is gone (connections_closed is bumped before the
  // connection leaves the table) so both exports read the same state.
  ASSERT_TRUE(shard_eventually([&] { return server.connection_count() == 0; }))
      << "closed clients' connections were never reaped";

  // Folding one shard is the identity — byte equality, not merely same
  // numbers.
  EXPECT_EQ(server.metrics_json(), server.service().metrics_json());
  EXPECT_EQ(server.metrics_prometheus(), server.service().metrics_prometheus());
  EXPECT_EQ(server.service().metrics().frames_handoff_in.load(), 0u);
  EXPECT_EQ(server.service().metrics().frames_handoff_out.load(), 0u);
  server.shutdown();
}

TEST(ShardAccept, AcceptDealingIsRoundRobinWithBoundedImbalance) {
  constexpr std::size_t kShards = 4;
  ServerOptions so;
  so.num_shards = kShards;
  TransportServer server(so, {}, group_factory());
  server.start();

  // Three bursts of deliberately non-multiple-of-N sizes.
  std::size_t total = 0;
  for (const std::size_t burst : {5u, 7u, 1u}) {
    std::vector<Client> clients;
    clients.reserve(burst);
    for (std::size_t c = 0; c < burst; ++c) {
      clients.emplace_back(client_for(server));
      clients.back().connect();
    }
    total += burst;
    // Earlier bursts' clients are gone: only this burst is live.
    ASSERT_TRUE(shard_eventually(
        [&] { return server.connection_count() == burst; }))
        << "burst of " << burst << " connections never fully installed";

    // Every live connection lives on exactly one shard...
    std::size_t per_shard_sum = 0;
    for (std::size_t i = 0; i < kShards; ++i) {
      per_shard_sum += server.connection_count(i);
    }
    EXPECT_EQ(per_shard_sum, burst);

    // ...and the all-time dealing is round-robin: max - min <= 1, and
    // (since accepts are sequential on one listener) exactly
    // ceil/floor(total / N) in index order.
    std::uint64_t installed_sum = 0;
    std::uint64_t lo = UINT64_MAX, hi = 0;
    for (std::size_t i = 0; i < kShards; ++i) {
      const std::uint64_t n = server.installed_on(i);
      EXPECT_EQ(n, total / kShards + (i < total % kShards ? 1 : 0))
          << "shard " << i;
      installed_sum += n;
      lo = std::min(lo, n);
      hi = std::max(hi, n);
    }
    EXPECT_EQ(installed_sum, total);
    EXPECT_LE(hi - lo, 1u);

    // Churn: this burst's clients all vanish before the next burst. The
    // live count drops; the dealt count must not.
    for (Client& client : clients) client.close();
    ASSERT_TRUE(shard_eventually(
        [&] { return server.connection_count() == 0; }));
  }

  // Fresh connections after all that churn still handshake fine on
  // whichever shard the dealing lands them.
  for (int c = 0; c < 3; ++c) {
    Client client(client_for(server));
    client.connect();
    const OpenRequest request =
        make_request(2, false, "shard-churn-" + std::to_string(c));
    client.open(request);
    const auto& summaries = client.run();
    ASSERT_EQ(summaries.size(), 1u);
    EXPECT_EQ(summaries.front().state, service::SessionState::kDone);
  }
  server.shutdown();
}

// Session ids carry their home shard: shard i of N stripes ids
// congruent to i+1 (mod N), so with connection-local homes (stripe off)
// a session's sid pins it to the shard that accepted its connection.
TEST(ShardAccept, StripedSidsEncodeTheHomeShard) {
  constexpr std::size_t kShards = 4;
  ServerOptions so;
  so.num_shards = kShards;
  so.auto_close_sessions = false;
  TransportServer server(so, {}, group_factory());
  server.start();

  std::vector<Client> clients;
  std::vector<std::uint64_t> sids;
  std::vector<OpenRequest> requests;
  for (std::size_t c = 0; c < 2 * kShards; ++c) {
    clients.emplace_back(client_for(server));
    clients.back().connect();
    requests.push_back(
        make_request(2, false, "shard-sid-" + std::to_string(c)));
    sids.push_back(clients.back().open(requests.back()));
    // Connections are dealt round-robin, so client c landed on shard
    // c % N, and with stripe_sessions off the session homes there too.
    EXPECT_EQ(server.home_shard_of(sids.back()), c % kShards)
        << "sid " << sids.back();
    EXPECT_EQ((sids.back() - 1) % kShards, c % kShards);
  }

  for (std::size_t c = 0; c < clients.size(); ++c) {
    SCOPED_TRACE("client " + std::to_string(c));
    clients[c].run();
    // outcomes() routes through home_shard_of — and the home shard's
    // service really does hold the session.
    expect_outcomes_equal(server.outcomes(sids[c]), serial_twin(requests[c]));
    EXPECT_EQ(server.session_state(sids[c]), service::SessionState::kDone);
  }

  // Nothing crossed shards: connection-local homes are the pure
  // single-reactor path.
  EXPECT_EQ(testing::sum_handoff_out(server), 0u);
  EXPECT_EQ(testing::sum_handoff_in(server), 0u);
  server.shutdown();
}

}  // namespace
}  // namespace shs::transport
