// Fault injection: fault-set bookkeeping, path/conference survival, and
// the structural fragility facts of unique-path networks.
#include "min/faults.hpp"

#include <gtest/gtest.h>

#include "conference/subnetwork.hpp"
#include "min/network.hpp"
#include "min/windows.hpp"
#include "util/error.hpp"

namespace confnet::min {
namespace {

TEST(FaultSet, Bookkeeping) {
  FaultSet faults(4);
  EXPECT_EQ(faults.fault_count(), 0u);
  faults.fail_link(2, 5);
  faults.fail_link(2, 5);  // idempotent
  EXPECT_EQ(faults.fault_count(), 1u);
  EXPECT_TRUE(faults.is_faulty(2, 5));
  EXPECT_FALSE(faults.is_faulty(2, 6));
  faults.repair_link(2, 5);
  EXPECT_EQ(faults.fault_count(), 0u);
  EXPECT_THROW(faults.fail_link(5, 0), Error);
  EXPECT_THROW(faults.fail_link(0, 16), Error);
}

TEST(FaultSet, RandomInjectionRate) {
  util::Rng rng(1);
  FaultSet faults(8);
  faults.inject_random(0.1, rng);
  // 7 interstage levels x 256 rows = 1792 candidate links.
  EXPECT_GT(faults.fault_count(), 1792 * 0.05);
  EXPECT_LT(faults.fault_count(), 1792 * 0.2);
  // External levels untouched by random injection.
  for (u32 row = 0; row < 256; ++row) {
    EXPECT_FALSE(faults.is_faulty(0, row));
    EXPECT_FALSE(faults.is_faulty(8, row));
  }
}

TEST(FaultSet, RepairReinjectRoundTripKeepsCountConsistent) {
  // Pins the count_/bitset coherence contract: fail_link is guarded, so
  // repeated inject/repair cycles — including re-injecting links that were
  // faulty before — can never drift the cached count.
  util::Rng rng(7);
  FaultSet faults(6);
  faults.inject_random(0.1, rng);
  const u64 first = faults.fault_count();
  EXPECT_GT(first, 0u);
  EXPECT_TRUE(faults.count_consistent());

  // Collect and repair every faulty link, one by one.
  std::vector<std::pair<u32, u32>> failed;
  for (u32 level = 0; level <= 6; ++level)
    for (u32 row = 0; row < 64; ++row)
      if (faults.is_faulty(level, row)) failed.emplace_back(level, row);
  EXPECT_EQ(failed.size(), first);
  for (const auto& [level, row] : failed) {
    faults.repair_link(level, row);
    faults.repair_link(level, row);  // idempotent
    EXPECT_TRUE(faults.count_consistent());
  }
  EXPECT_EQ(faults.fault_count(), 0u);

  // Re-inject the same links twice over: the guard must absorb duplicates.
  for (const auto& [level, row] : failed) faults.fail_link(level, row);
  for (const auto& [level, row] : failed) faults.fail_link(level, row);
  EXPECT_EQ(faults.fault_count(), first);
  EXPECT_TRUE(faults.count_consistent());

  faults.clear();
  EXPECT_EQ(faults.fault_count(), 0u);
  EXPECT_TRUE(faults.count_consistent());
  for (const auto& [level, row] : failed)
    EXPECT_FALSE(faults.is_faulty(level, row));
}

TEST(FaultSet, CornerLinksSetExactlyTheirOwnBit) {
  // The fault mask is one level-major bitset; the first and last rows of a
  // level sit next to the neighbouring levels' rows in it. Failing either
  // corner must touch that link alone.
  for (u32 n = 1; n <= 10; ++n) {
    const u32 N = u32{1} << n;
    for (const auto& [lv, rw] :
         {std::pair<u32, u32>{0, N - 1}, std::pair<u32, u32>{n, 0}}) {
      FaultSet faults(n);
      faults.fail_link(lv, rw);
      EXPECT_EQ(faults.fault_count(), 1u);
      EXPECT_TRUE(faults.count_consistent());
      EXPECT_TRUE(faults.is_faulty(lv, rw));
      for (u32 level = 0; level <= n; ++level)
        for (u32 row = 0; row < N; ++row) {
          if (level == lv && row == rw) continue;
          ASSERT_FALSE(faults.is_faulty(level, row))
              << "n=" << n << " failed (" << lv << "," << rw
              << ") also reads (" << level << "," << row << ")";
        }
      faults.repair_link(lv, rw);
      EXPECT_EQ(faults.fault_count(), 0u);
      EXPECT_TRUE(faults.count_consistent());
      EXPECT_FALSE(faults.is_faulty(lv, rw));
    }
  }
}

TEST(Faults, HealthyNetworkFullyConnected) {
  for (Kind kind : kAllKinds) {
    const FaultSet faults(4);
    EXPECT_DOUBLE_EQ(connectivity(kind, 4, faults), 1.0);
  }
}

TEST(Faults, SingleLinkKillsExactlyItsWindowProduct) {
  // A faulty link (l,p) disconnects precisely |In| * |Out| = N pairs.
  for (Kind kind : kAllKinds) {
    const u32 n = 4;
    const u32 N = 16;
    for (u32 level = 1; level < n; ++level) {
      FaultSet faults(n);
      faults.fail_link(level, 7);
      const double c = connectivity(kind, n, faults);
      EXPECT_NEAR(c, 1.0 - 1.0 / N, 1e-12)
          << kind_name(kind) << " level=" << level;
    }
  }
}

TEST(Faults, PathSurvivalMatchesMembership) {
  const u32 n = 4;
  for (Kind kind : kAllKinds) {
    FaultSet faults(n);
    faults.fail_link(2, 9);
    const WindowDesc in_w = in_window(kind, n, 2, 9);
    const WindowDesc out_w = out_window(kind, n, 2, 9);
    for (u32 s = 0; s < 16; ++s)
      for (u32 d = 0; d < 16; ++d)
        EXPECT_EQ(path_survives(kind, n, s, d, faults),
                  !(in_w.contains(s) && out_w.contains(d)));
  }
}

TEST(Faults, ConferenceSurvivalEqualsSubnetworkDisjointness) {
  util::Rng rng(5);
  for (Kind kind : kAllKinds) {
    const u32 n = 5;
    for (int trial = 0; trial < 20; ++trial) {
      FaultSet faults(n);
      faults.inject_random(0.05, rng);
      auto members = rng.sample_distinct(32, 4);
      std::sort(members.begin(), members.end());
      const auto links = conf::all_pairs_links(kind, n, members);
      bool hit = false;
      for (u32 level = 0; level <= n; ++level)
        for (u32 row : links[level]) hit = hit || faults.is_faulty(level, row);
      EXPECT_EQ(conference_survives(kind, n, members, faults), !hit)
          << kind_name(kind) << " trial " << trial;
    }
  }
}

TEST(Faults, SwitchFaultKillsBothOutputs) {
  const u32 n = 3;
  for (Kind kind : kAllKinds) {
    FaultSet faults(n);
    faults.fail_switch_outputs(kind, 2, 1);
    EXPECT_EQ(faults.fault_count(), 2u);
    // Both failed links are at level 2.
    u32 at_level2 = 0;
    for (u32 row = 0; row < 8; ++row)
      if (faults.is_faulty(2, row)) ++at_level2;
    EXPECT_EQ(at_level2, 2u);
  }
}

TEST(Faults, SwitchFaultHitsExactlyThatSwitchsOutputs) {
  const u32 n = 4;
  for (Kind kind : kAllKinds) {
    const Network net = make_network(kind, n);
    for (u32 stage = 1; stage <= n; ++stage) {
      for (u32 w = 0; w < net.size() / 2; ++w) {
        FaultSet faults(n);
        faults.fail_switch_outputs(kind, stage, w);
        for (u32 row = 0; row < net.size(); ++row)
          EXPECT_EQ(faults.is_faulty(stage, row),
                    net.switch_of_output(stage, row) == w)
              << kind_name(kind) << " stage " << stage << " switch " << w;
      }
    }
  }
}

TEST(Faults, LargerConferencesAreMoreFragile) {
  // Survival probability decreases with conference size (more links).
  util::Rng rng(11);
  const u32 n = 6;
  const Kind kind = Kind::kIndirectCube;
  double survival_small = 0, survival_large = 0;
  constexpr int kTrials = 300;
  for (int t = 0; t < kTrials; ++t) {
    FaultSet faults(n);
    faults.inject_random(0.02, rng);
    auto small = rng.sample_distinct(64, 2);
    auto large = rng.sample_distinct(64, 16);
    std::sort(small.begin(), small.end());
    std::sort(large.begin(), large.end());
    survival_small += conference_survives(kind, n, small, faults);
    survival_large += conference_survives(kind, n, large, faults);
  }
  EXPECT_GT(survival_small, survival_large);
}

TEST(Faults, AlignedPlacementShrinksTheBlastRadiusInEnhancedCube) {
  // A conference confined to an aligned block (enhanced realization) only
  // dies to faults inside its own rows and levels <= tap level.
  const u32 n = 4;
  const std::vector<u32> members{4, 5, 6, 7};
  const auto real = conf::enhanced_cube_realization(n, members);
  FaultSet outside(n);
  outside.fail_link(1, 0);    // different rows
  outside.fail_link(3, 5);    // above the tap level
  bool hit = false;
  for (u32 level = 0; level <= n; ++level)
    for (u32 row : real.links[level])
      hit = hit || outside.is_faulty(level, row);
  EXPECT_FALSE(hit);
  FaultSet inside(n);
  inside.fail_link(1, 5);  // inside the block, below tap level
  hit = false;
  for (u32 level = 0; level <= n; ++level)
    for (u32 row : real.links[level])
      hit = hit || inside.is_faulty(level, row);
  EXPECT_TRUE(hit);
}

}  // namespace
}  // namespace confnet::min
