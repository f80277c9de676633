// Analytic loss models: Erlang-B identities and Kaufman-Roberts, validated
// against each other and against the discrete-event simulator.
#include "analysis/sim/erlang.hpp"

#include <gtest/gtest.h>

#include "conference/designs.hpp"
#include "sim/teletraffic.hpp"
#include "util/error.hpp"

namespace confnet::sim {
namespace {

TEST(ErlangB, BaseCases) {
  EXPECT_DOUBLE_EQ(erlang_b(0.0, 10), 0.0);
  // One server: B = E / (1 + E).
  for (double e : {0.1, 1.0, 5.0})
    EXPECT_NEAR(erlang_b(e, 1), e / (1 + e), 1e-12);
  // Zero servers: everything blocks.
  EXPECT_DOUBLE_EQ(erlang_b(3.0, 0), 1.0);
}

TEST(ErlangB, KnownTableValues) {
  // Classic engineering table entries.
  EXPECT_NEAR(erlang_b(10.0, 10), 0.2146, 5e-4);
  EXPECT_NEAR(erlang_b(5.0, 10), 0.0184, 5e-4);
  EXPECT_NEAR(erlang_b(20.0, 30), 0.0085, 5e-4);
}

TEST(ErlangB, MonotoneInServersAndLoad) {
  for (std::uint32_t m = 1; m < 20; ++m)
    EXPECT_GT(erlang_b(8.0, m), erlang_b(8.0, m + 1));
  for (double e = 1.0; e < 10.0; e += 1.0)
    EXPECT_LT(erlang_b(e, 12), erlang_b(e + 1.0, 12));
}

TEST(ErlangB, InverseDimensioning) {
  for (double e : {2.0, 10.0, 50.0}) {
    const auto m = erlang_b_servers(e, 0.01);
    EXPECT_LE(erlang_b(e, m), 0.01);
    EXPECT_GT(erlang_b(e, m - 1), 0.01);
  }
}

TEST(KaufmanRoberts, ReducesToErlangB) {
  // A single class of 1-port sessions is exactly Erlang-B.
  for (double e : {1.0, 4.0, 12.0}) {
    const auto blocking = kaufman_roberts_blocking(16, {{1, e}});
    ASSERT_EQ(blocking.size(), 1u);
    EXPECT_NEAR(blocking[0], erlang_b(e, 16), 1e-12);
  }
}

TEST(KaufmanRoberts, WiderClassesBlockMore) {
  const auto blocking =
      kaufman_roberts_blocking(32, {{2, 3.0}, {4, 3.0}, {8, 3.0}});
  ASSERT_EQ(blocking.size(), 3u);
  EXPECT_LT(blocking[0], blocking[1]);
  EXPECT_LT(blocking[1], blocking[2]);
}

TEST(KaufmanRoberts, ScalingPoolReducesBlocking) {
  const std::vector<TrafficClass> classes{{4, 5.0}};
  EXPECT_GT(kaufman_roberts_blocking(16, classes)[0],
            kaufman_roberts_blocking(64, classes)[0]);
}

TEST(KaufmanRoberts, ValidatesInput) {
  EXPECT_THROW((void)kaufman_roberts_blocking(0, {{1, 1.0}}), Error);
  EXPECT_THROW((void)kaufman_roberts_blocking(8, {{0, 1.0}}), Error);
  EXPECT_THROW((void)kaufman_roberts_blocking(8, {{1, -1.0}}), Error);
}

TEST(AggregateBlocking, Weighted) {
  EXPECT_DOUBLE_EQ(aggregate_blocking({0.1, 0.3}, {1.0, 1.0}), 0.2);
  EXPECT_DOUBLE_EQ(aggregate_blocking({0.1, 0.3}, {3.0, 1.0}), 0.15);
  EXPECT_DOUBLE_EQ(aggregate_blocking({}, {}), 0.0);
}

TEST(KaufmanRoberts, MatchesSimulatedCompleteSharing) {
  // First-fit placement on a conflict-free fabric is a complete-sharing
  // loss system; the simulator must land near Kaufman-Roberts. Fixed size
  // (4 ports per session) keeps the class model exact.
  const min::u32 n = 5;  // 32 ports
  conf::DirectConferenceNetwork net(min::Kind::kIndirectCube, n,
                                    conf::DilationProfile::full(n));
  TeletrafficConfig c;
  c.traffic.arrival_rate = 2.0;
  c.traffic.mean_holding = 2.0;  // 4 Erlangs of 4-port sessions on 32 ports
  c.traffic.min_size = 4;
  c.traffic.max_size = 4;
  c.policy = conf::PlacementPolicy::kFirstFit;
  c.duration = 6000.0;
  c.warmup = 500.0;
  c.seed = 77;
  const TeletrafficResult r = run_teletraffic(net, c);
  const double analytic = kaufman_roberts_blocking(
      32, {{4, c.traffic.offered_erlangs()}})[0];
  EXPECT_NEAR(r.blocking_probability, analytic,
              0.25 * analytic + 0.01);
}

}  // namespace
}  // namespace confnet::sim
