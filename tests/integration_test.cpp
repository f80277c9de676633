// End-to-end integration: random session churn across every topology and
// design, with full functional verification of the fabric after every
// burst — the library exercised the way the examples and benches use it.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/conference/multiplicity.hpp"
#include "analysis/cost/cost.hpp"
#include "conference/session.hpp"
#include "min/windows.hpp"
#include "sim/teletraffic.hpp"
#include "util/rng.hpp"

namespace confnet {
namespace {

using conf::DilationProfile;
using conf::DirectConferenceNetwork;
using conf::EnhancedCubeNetwork;
using conf::PlacementPolicy;
using min::Kind;

TEST(Integration, ChurnEveryTopologyWithFullDilation) {
  util::Rng rng(2024);
  for (Kind kind : min::kAllKinds) {
    const min::u32 n = 5;
    DirectConferenceNetwork net(kind, n, DilationProfile::full(n));
    conf::SessionManager mgr(net, PlacementPolicy::kRandom);
    std::vector<min::u32> live;
    for (int step = 0; step < 300; ++step) {
      if (!live.empty() && rng.chance(0.45)) {
        const auto idx = static_cast<std::size_t>(rng.below(live.size()));
        mgr.close(live[idx]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      } else {
        const auto size = 2 + static_cast<min::u32>(rng.below(6));
        const auto [r, s] = mgr.open(size, rng);
        if (r == conf::OpenResult::kAccepted) live.push_back(*s);
        // Full dilation: capacity blocking must never be the reason.
        EXPECT_NE(r, conf::OpenResult::kBlockedCapacity)
            << min::kind_name(kind) << " step " << step;
      }
      if (step % 50 == 0) {
        EXPECT_TRUE(net.verify_delivery())
            << min::kind_name(kind) << " step " << step;
      }
    }
    EXPECT_TRUE(net.verify_delivery());
  }
}

TEST(Integration, MeasuredConflictsMatchAdmissionDecisions) {
  // If the analyzer says a conference set has peak multiplicity m, a direct
  // network with uniform dilation m must accept the whole set, and one with
  // dilation m-1 must refuse at least one member.
  util::Rng rng(7);
  for (Kind kind : min::kAllKinds) {
    const min::u32 n = 5;
    for (int trial = 0; trial < 10; ++trial) {
      // Build a random disjoint conference set.
      conf::ConferenceSet set(32);
      conf::PortPlacer placer(n, PlacementPolicy::kRandom);
      for (min::u32 id = 0; id < 6; ++id) {
        const auto size = 2 + static_cast<min::u32>(rng.below(4));
        if (auto ports = placer.place(size, rng))
          set.add(conf::Conference(id, std::move(*ports)));
      }
      if (set.empty()) continue;
      const auto prof = conf::measure_multiplicity(kind, n, set);
      const min::u32 m = std::max(prof.peak, 1u);

      DirectConferenceNetwork enough(kind, n,
                                     DilationProfile::uniform(n, m));
      bool all = true;
      for (const auto& c : set.conferences())
        all = all && enough.setup(c.members()).has_value();
      EXPECT_TRUE(all) << min::kind_name(kind) << " m=" << m;
      EXPECT_TRUE(enough.verify_delivery());

      if (m >= 2) {
        DirectConferenceNetwork tight(kind, n,
                                      DilationProfile::uniform(n, m - 1));
        bool refused = false;
        for (const auto& c : set.conferences())
          refused = refused || !tight.setup(c.members()).has_value();
        EXPECT_TRUE(refused) << min::kind_name(kind) << " m=" << m;
      }
    }
  }
}

TEST(Integration, EnhancedAndDirectCubeAgreeFunctionally) {
  // Same aligned workload through both designs: identical delivered mixes.
  util::Rng rng(15);
  const min::u32 n = 5;
  EnhancedCubeNetwork enhanced(n);
  DirectConferenceNetwork direct(Kind::kIndirectCube, n,
                                 DilationProfile::uniform(n, 1));
  conf::PortPlacer placer(n, PlacementPolicy::kBuddy);
  for (int i = 0; i < 6; ++i) {
    const auto size = 2 + static_cast<min::u32>(rng.below(4));
    const auto ports = placer.place(size, rng);
    if (!ports) break;
    ASSERT_TRUE(enhanced.setup(*ports).has_value());
    ASSERT_TRUE(direct.setup(*ports).has_value());
  }
  EXPECT_TRUE(enhanced.verify_delivery());
  EXPECT_TRUE(direct.verify_delivery());
}

TEST(Integration, SimulationAgreesWithStaticAnalyzer) {
  // Dynamic capacity blocking exists exactly where the static analyzer says
  // conflicts exist (baseline vs cube under buddy placement at d=1).
  sim::TeletrafficConfig c;
  c.traffic.arrival_rate = 6.0;
  c.traffic.mean_holding = 2.0;
  c.traffic.min_size = 2;
  c.traffic.max_size = 6;
  c.duration = 500.0;
  c.warmup = 50.0;
  c.policy = PlacementPolicy::kBuddy;
  c.seed = 31;

  DirectConferenceNetwork cube(Kind::kIndirectCube, 6,
                               DilationProfile::uniform(6, 1));
  DirectConferenceNetwork baseline(Kind::kBaseline, 6,
                                   DilationProfile::uniform(6, 1));
  const auto rc = sim::run_teletraffic(cube, c);
  const auto rb = sim::run_teletraffic(baseline, c);
  EXPECT_EQ(rc.stats.blocked_capacity, 0u);
  EXPECT_GT(rb.stats.blocked_capacity, 0u);
  // Matching the analyzer's split of the class:
  EXPECT_EQ(conf::theoretical_aligned_max(Kind::kIndirectCube, 6, 3), 1u);
  EXPECT_GT(conf::theoretical_aligned_max(Kind::kBaseline, 6, 3), 1u);
}

TEST(Integration, CostOfNonblockingnessMatchesAnalyzer) {
  // The dilation the analyzer demands for arbitrary placement is what the
  // cost model prices: full() uses exactly min::r1_bound per level.
  const min::u32 n = 8;
  const auto profile = DilationProfile::full(n);
  for (min::u32 l = 0; l <= n; ++l) {
    const min::u32 want = l == 0 || l == n ? 1u : min::r1_bound(n, l);
    EXPECT_EQ(profile.channels(l), want);
  }
  const auto full_cost = cost::direct_cost(n, profile);
  const auto unit_cost =
      cost::direct_cost(n, DilationProfile::uniform(n, 1));
  EXPECT_GT(full_cost.total_gates(), unit_cost.total_gates());
}

}  // namespace
}  // namespace confnet
