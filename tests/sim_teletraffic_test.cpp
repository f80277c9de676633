// Teletraffic experiments: reproducibility, Little's law consistency,
// blocking monotonicity in offered load, functional soundness under churn.
#include "sim/teletraffic.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "analysis/sim/replication.hpp"
#include "min/windows.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace confnet::sim {
namespace {

using conf::DilationProfile;
using conf::DirectConferenceNetwork;
using conf::EnhancedCubeNetwork;
using conf::PlacementPolicy;
using min::Kind;

TeletrafficConfig base_config() {
  TeletrafficConfig c;
  c.traffic.arrival_rate = 2.0;
  c.traffic.mean_holding = 2.0;
  c.traffic.min_size = 2;
  c.traffic.max_size = 6;
  c.duration = 600.0;
  c.warmup = 100.0;
  c.seed = 11;
  return c;
}

TEST(Teletraffic, ReproducibleWithSameSeed) {
  const auto run = [] {
    DirectConferenceNetwork net(Kind::kOmega, 6, DilationProfile::full(6));
    return run_teletraffic(net, base_config());
  };
  const TeletrafficResult a = run();
  const TeletrafficResult b = run();
  EXPECT_EQ(a.stats.attempts, b.stats.attempts);
  EXPECT_EQ(a.stats.accepted, b.stats.accepted);
  EXPECT_DOUBLE_EQ(a.mean_active_sessions, b.mean_active_sessions);
  EXPECT_EQ(a.events, b.events);
}

TEST(Teletraffic, LittlesLawHolds) {
  DirectConferenceNetwork net(Kind::kIndirectCube, 7,
                              DilationProfile::full(7));
  TeletrafficConfig c = base_config();
  c.duration = 2000.0;
  const TeletrafficResult r = run_teletraffic(net, c);
  // Carried load equals accepted-rate * holding within stochastic noise.
  EXPECT_NEAR(r.mean_active_sessions, r.littles_law_estimate,
              0.15 * r.littles_law_estimate + 0.2);
}

TEST(Teletraffic, NoBlockingAtLowLoadOnBigNetwork) {
  DirectConferenceNetwork net(Kind::kOmega, 8, DilationProfile::full(8));
  TeletrafficConfig c = base_config();
  c.traffic.arrival_rate = 0.5;
  c.traffic.mean_holding = 1.0;  // ~0.5 Erlangs on 256 ports
  const TeletrafficResult r = run_teletraffic(net, c);
  EXPECT_EQ(r.stats.blocked_capacity, 0u);
  EXPECT_EQ(r.stats.blocked_placement, 0u);
}

TEST(Teletraffic, BlockingGrowsWithOfferedLoad) {
  double prev = -1.0;
  for (double rate : {1.0, 4.0, 16.0}) {
    DirectConferenceNetwork net(Kind::kOmega, 4, DilationProfile::full(4));
    TeletrafficConfig c = base_config();
    c.traffic.arrival_rate = rate;
    c.traffic.mean_holding = 4.0;
    c.duration = 800.0;
    const TeletrafficResult r = run_teletraffic(net, c);
    EXPECT_GE(r.blocking_probability, prev - 0.02)
        << "blocking should not decrease when load quadruples";
    prev = r.blocking_probability;
  }
  EXPECT_GT(prev, 0.2);  // heavy overload must visibly block
}

TEST(Teletraffic, DilationReducesCapacityBlocking) {
  // Random placement on a unit-dilation cube blocks for capacity; full
  // dilation removes capacity blocking entirely.
  TeletrafficConfig c = base_config();
  c.policy = PlacementPolicy::kRandom;
  c.traffic.arrival_rate = 4.0;

  DirectConferenceNetwork d1(Kind::kIndirectCube, 6,
                             DilationProfile::uniform(6, 1));
  const TeletrafficResult r1 = run_teletraffic(d1, c);

  DirectConferenceNetwork dfull(Kind::kIndirectCube, 6,
                                DilationProfile::full(6));
  const TeletrafficResult rfull = run_teletraffic(dfull, c);

  EXPECT_GT(r1.stats.blocked_capacity, 0u);
  EXPECT_EQ(rfull.stats.blocked_capacity, 0u);
  EXPECT_LE(rfull.blocking_probability, r1.blocking_probability + 1e-9);
}

TEST(Teletraffic, BuddyPlacementRemovesCapacityBlockingAtUnitDilation) {
  // R2 consequence, dynamically: orthogonal-window topologies at d=1 with
  // buddy placement never block for capacity.
  for (Kind kind : min::kAllKinds) {
    if (min::has_block_block_windows(kind)) continue;
    DirectConferenceNetwork net(kind, 6, DilationProfile::uniform(6, 1));
    TeletrafficConfig c = base_config();
    c.policy = PlacementPolicy::kBuddy;
    c.traffic.arrival_rate = 4.0;
    const TeletrafficResult r = run_teletraffic(net, c);
    EXPECT_EQ(r.stats.blocked_capacity, 0u) << min::kind_name(kind);
  }
}

TEST(Teletraffic, BaselineAtUnitDilationDoesCapacityBlockEvenBuddy) {
  // ...while the block x block topologies (baseline, flip) still conflict
  // under buddy.
  for (Kind kind : min::kAllKinds) {
    if (!min::has_block_block_windows(kind)) continue;
    DirectConferenceNetwork net(kind, 6, DilationProfile::uniform(6, 1));
    TeletrafficConfig c = base_config();
    c.policy = PlacementPolicy::kBuddy;
    c.traffic.arrival_rate = 6.0;
    const TeletrafficResult r = run_teletraffic(net, c);
    EXPECT_GT(r.stats.blocked_capacity, 0u) << min::kind_name(kind);
  }
}

/// A decorator that forwards every virtual of the design interface except
/// narrowest_channels(), as a timing or tracing wrapper written before
/// that accessor would: the session layer then reads the base default.
class ForwardingNetwork final : public conf::ConferenceNetworkBase {
 public:
  explicit ForwardingNetwork(conf::ConferenceNetworkBase& inner)
      : inner_(inner) {}

  u32 n() const noexcept override { return inner_.n(); }
  std::string name() const override { return inner_.name(); }
  std::optional<u32> setup(const std::vector<u32>& members) override {
    return inner_.setup(members);
  }
  conf::SetupError last_error() const noexcept override {
    return inner_.last_error();
  }
  void teardown(u32 handle) override { inner_.teardown(handle); }
  u32 active_count() const noexcept override { return inner_.active_count(); }
  bool verify_delivery() const override { return inner_.verify_delivery(); }
  bool verify_delivery_reference() const override {
    return inner_.verify_delivery_reference();
  }
  u32 stages_for(u32 handle) const override {
    return inner_.stages_for(handle);
  }
  bool add_member(u32 handle, u32 port) override {
    return inner_.add_member(handle, port);
  }
  bool remove_member(u32 handle, u32 port) override {
    return inner_.remove_member(handle, port);
  }
  const std::vector<u32>& members_for(u32 handle) const override {
    return inner_.members_for(handle);
  }
  Kind kind() const noexcept override { return inner_.kind(); }
  bool supports_faults() const noexcept override {
    return inner_.supports_faults();
  }
  std::vector<u32> fail_link(u32 level, u32 row) override {
    return inner_.fail_link(level, row);
  }
  std::vector<u32> repair_link(u32 level, u32 row) override {
    return inner_.repair_link(level, row);
  }
  bool link_faulty(u32 level, u32 row) const override {
    return inner_.link_faulty(level, row);
  }
  const min::FaultSet* faults() const noexcept override {
    return inner_.faults();
  }
  bool conference_survives(u32 handle) const override {
    return inner_.conference_survives(handle);
  }

 private:
  conf::ConferenceNetworkBase& inner_;
};

TEST(Teletraffic, ForwardingDecoratorSharesAsDeepAsTheBareFabric) {
  // A buddy DES on a 128-port cube of four channels a link, with joins,
  // leaves and delivery checks. The decorator does not state its channels,
  // so its session layer shares to the deepest cover, four; the bare
  // fabric states four. The runs are identical, and differ from the run
  // on a fabric of two channels, which shares only two deep.
  TeletrafficConfig c;
  c.traffic.arrival_rate = 5.0;
  c.traffic.mean_holding = 2.0;
  c.traffic.min_size = 2;
  c.traffic.max_size = 16;
  c.policy = PlacementPolicy::kBuddy;
  c.duration = 100.0;
  c.warmup = 20.0;
  c.seed = 5;
  c.verify_functional = true;
  c.verify_interval = 0.5;
  c.membership_churn = true;
  const auto cube = [](u32 d) {
    return DirectConferenceNetwork(Kind::kIndirectCube, 7,
                                   DilationProfile::uniform(7, d));
  };
  DirectConferenceNetwork bare = cube(4);
  DirectConferenceNetwork inner = cube(4);
  ForwardingNetwork forwarded(inner);
  DirectConferenceNetwork two = cube(2);
  ASSERT_EQ(bare.narrowest_channels(), 4u);
  ASSERT_EQ(forwarded.narrowest_channels(), std::numeric_limits<u32>::max());
  const TeletrafficResult a = run_teletraffic(bare, c);
  const TeletrafficResult b = run_teletraffic(forwarded, c);
  const TeletrafficResult narrow = run_teletraffic(two, c);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.joins, b.joins);
  EXPECT_EQ(a.joins_blocked, b.joins_blocked);
  EXPECT_EQ(a.leaves, b.leaves);
  EXPECT_EQ(a.functional_checks, b.functional_checks);
  EXPECT_EQ(a.blocking_probability, b.blocking_probability);
  EXPECT_EQ(a.mean_busy_ports, b.mean_busy_ports);
  EXPECT_EQ(a.mean_active_sessions, b.mean_active_sessions);
  EXPECT_TRUE(a.functional_ok && b.functional_ok);
  EXPECT_TRUE(inner.fabric().r2_mode());
  EXPECT_GT(a.stats.shared, 0u);
  EXPECT_NE(a.stats, narrow.stats);
}

TEST(Teletraffic, FunctionalVerificationDuringChurn) {
  EnhancedCubeNetwork net(6);
  TeletrafficConfig c = base_config();
  c.policy = PlacementPolicy::kBuddy;
  c.verify_functional = true;
  c.verify_interval = 25.0;
  c.duration = 400.0;
  const TeletrafficResult r = run_teletraffic(net, c);
  EXPECT_GT(r.functional_checks, 0u);
  EXPECT_TRUE(r.functional_ok);
}

TEST(Teletraffic, EnhancedCubeShortensStages) {
  TeletrafficConfig c = base_config();
  c.policy = PlacementPolicy::kBuddy;

  EnhancedCubeNetwork enhanced(6);
  const TeletrafficResult re = run_teletraffic(enhanced, c);

  DirectConferenceNetwork direct(Kind::kIndirectCube, 6,
                                 DilationProfile::uniform(6, 1));
  const TeletrafficResult rd = run_teletraffic(direct, c);

  ASSERT_GT(re.session_stages.n, 0u);
  EXPECT_LT(re.session_stages.mean, rd.session_stages.mean);
  EXPECT_DOUBLE_EQ(rd.session_stages.mean, 6.0);
}

TEST(Teletraffic, TalkSpurtsProduceSaneConcurrency) {
  EnhancedCubeNetwork net(5);
  TeletrafficConfig c = base_config();
  c.policy = PlacementPolicy::kBuddy;
  c.talk_spurts = true;
  c.mean_talk = 1.0;
  c.mean_silence = 2.0;
  c.duration = 400.0;
  const TeletrafficResult r = run_teletraffic(net, c);
  ASSERT_GT(r.speaker_concurrency.n, 0u);
  // Mean concurrent speakers per conference is between 0 and max size, and
  // roughly activity_factor * mean size.
  EXPECT_GT(r.speaker_concurrency.mean, 0.0);
  EXPECT_LT(r.speaker_concurrency.mean, 6.0);
  const double expect_mean =
      (1.0 / 3.0) * (c.traffic.min_size + c.traffic.max_size) / 2.0;
  EXPECT_NEAR(r.speaker_concurrency.mean, expect_mean, expect_mean * 0.5);
}

TEST(Teletraffic, MembershipChurnRunsAndBalances) {
  EnhancedCubeNetwork net(6);
  TeletrafficConfig c = base_config();
  c.policy = PlacementPolicy::kBuddy;
  c.membership_churn = true;
  c.join_rate = 1.0;
  c.leave_rate = 1.0;
  c.duration = 400.0;
  c.verify_functional = true;
  c.verify_interval = 50.0;
  const TeletrafficResult r = run_teletraffic(net, c);
  EXPECT_GT(r.joins + r.joins_blocked + r.leaves, 0u);
  EXPECT_TRUE(r.functional_ok);
  // Joins under buddy+enhanced never hit fabric capacity (blocked joins
  // come from full blocks only) and the run stays reproducible.
  const auto run_again = [&] {
    EnhancedCubeNetwork net2(6);
    return run_teletraffic(net2, c);
  };
  const TeletrafficResult r2 = run_again();
  EXPECT_EQ(r.joins, r2.joins);
  EXPECT_EQ(r.leaves, r2.leaves);
  EXPECT_EQ(r.events, r2.events);
}

TEST(Teletraffic, ChurnKeepsDirectFabricConsistent) {
  DirectConferenceNetwork net(Kind::kOmega, 6, DilationProfile::full(6));
  TeletrafficConfig c = base_config();
  c.policy = PlacementPolicy::kRandom;
  c.membership_churn = true;
  c.join_rate = 2.0;
  c.leave_rate = 1.0;
  c.duration = 300.0;
  c.verify_functional = true;
  c.verify_interval = 30.0;
  const TeletrafficResult r = run_teletraffic(net, c);
  EXPECT_TRUE(r.functional_ok);
  EXPECT_GT(r.joins, 0u);
  EXPECT_GT(r.leaves, 0u);
}

TEST(Teletraffic, PostWarmupStatsDiffEveryField) {
  // Churn and a fault process move every SessionStats field; each
  // post-warmup count is the whole-run count less the warmup snapshot, so
  // it is positive here and no larger than the whole-run figure.
  DirectConferenceNetwork net(Kind::kIndirectCube, 6,
                              DilationProfile::full(6));
  TeletrafficConfig c = base_config();
  c.policy = PlacementPolicy::kRandom;
  c.membership_churn = true;
  c.join_rate = 2.0;
  c.leave_rate = 1.0;
  c.duration = 300.0;
  c.fault_rate = 0.2;
  const TeletrafficResult r = run_teletraffic(net, c);
  EXPECT_GT(r.stats.closes, 0u);
  EXPECT_GT(r.stats.joins, 0u);
  EXPECT_GT(r.stats.leaves, 0u);
  EXPECT_GT(r.stats.interrupted, 0u);
  EXPECT_LE(r.stats.joins, r.joins);
  EXPECT_LE(r.stats.joins_blocked, r.joins_blocked);
  EXPECT_LE(r.stats.leaves, r.leaves);
  EXPECT_LE(r.stats.interrupted, r.recovery.sessions_interrupted);
  EXPECT_LE(r.stats.joins_blocked_fault, r.stats.joins_blocked);
}

TEST(Teletraffic, RecoveryCountsEqualTheRegistryFold) {
  // The run's control plane folds its recovery counts into the registry
  // once, when it ends; the result reports those same counts.
  const auto counter = [](const char* subsystem, const char* name) {
    return obs::Registry::global().counter(subsystem, name).value();
  };
  const auto fold = [&] {
    return std::array<std::uint64_t, 7>{
        counter("fault", "link_failures"),
        counter("fault", "link_repairs"),
        counter("conf", "recovery_interrupted"),
        counter("conf", "recovery_recovered"),
        counter("conf", "recovery_retries"),
        counter("conf", "recovery_dropped"),
        counter("conf", "recovery_expired")};
  };
  DirectConferenceNetwork net(Kind::kOmega, 5, DilationProfile::full(5));
  TeletrafficConfig c = base_config();
  c.duration = 300.0;
  c.seed = 29;
  c.fault_rate = 0.3;
  const std::array<std::uint64_t, 7> before = fold();
  const TeletrafficResult r = run_teletraffic(net, c);
  const std::array<std::uint64_t, 7> after = fold();
  const conf::RecoveryStats& rs = r.recovery;
  EXPECT_GT(rs.sessions_interrupted, 0u);
  const std::array<std::uint64_t, 7> reported{
      rs.link_failures, rs.link_repairs, rs.sessions_interrupted,
      rs.recovered(),   rs.retries,      rs.dropped,
      rs.expired};
  for (std::size_t i = 0; i < reported.size(); ++i)
    EXPECT_EQ(after[i] - before[i], reported[i]) << "counter " << i;
}

TEST(Teletraffic, ConfigValidation) {
  DirectConferenceNetwork net(Kind::kOmega, 3, DilationProfile::full(3));
  TeletrafficConfig c = base_config();
  c.warmup = c.duration;
  EXPECT_THROW((void)run_teletraffic(net, c), Error);
}

TEST(Replication, AggregatesAcrossSeeds) {
  TeletrafficConfig c = base_config();
  c.duration = 300.0;
  const ReplicatedResult agg = run_replications(
      [] {
        return std::make_unique<DirectConferenceNetwork>(
            Kind::kOmega, 5, DilationProfile::full(5));
      },
      c, 5);
  EXPECT_EQ(agg.blocking.count(), 5u);
  EXPECT_GT(agg.total_attempts, 0u);
  EXPECT_TRUE(agg.functional_ok);
  EXPECT_GT(agg.carried.mean(), 0.0);
}

TEST(TrafficModel, ErlangArithmetic) {
  TrafficModel m;
  m.arrival_rate = 3.0;
  m.mean_holding = 2.0;
  m.min_size = 2;
  m.max_size = 4;
  EXPECT_DOUBLE_EQ(m.offered_erlangs(), 6.0);
  EXPECT_DOUBLE_EQ(m.offered_port_load(), 18.0);
}

TEST(TalkSpurt, ActivityFactor) {
  const TalkSpurtProcess p(1.0, 3.0);
  EXPECT_DOUBLE_EQ(p.activity_factor(), 0.25);
}

}  // namespace
}  // namespace confnet::sim
