// The reproduction's core claims (DESIGN.md R1-R3), verified four
// independent ways: closed forms vs exhaustive partition search vs
// constructive adversaries vs exact per-link packing.
#include "analysis/conference/multiplicity.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

#include "conference/subnetwork.hpp"
#include "min/windows.hpp"
#include "util/error.hpp"

namespace confnet::conf {
namespace {

using min::Kind;

// --- R1: arbitrary placement, whole class -------------------------------

TEST(R1Exhaustive, EveryTopologyMatchesClosedFormSmallN) {
  for (Kind kind : min::kAllKinds) {
    for (u32 n : {2u, 3u}) {
      const MultiplicityProfile prof = exhaustive_max_multiplicity(kind, n);
      for (u32 level = 0; level <= n; ++level)
        EXPECT_EQ(prof.per_level[level], min::r1_bound(n, level))
            << min::kind_name(kind) << " n=" << n << " level=" << level;
      EXPECT_EQ(prof.peak, theoretical_peak(n));
    }
  }
}

TEST(R1ClosedForm, Values) {
  EXPECT_EQ(min::r1_bound(4, 0), 1u);
  EXPECT_EQ(min::r1_bound(4, 1), 2u);
  EXPECT_EQ(min::r1_bound(4, 2), 4u);
  EXPECT_EQ(min::r1_bound(4, 3), 2u);
  EXPECT_EQ(min::r1_bound(4, 4), 1u);
  EXPECT_EQ(theoretical_peak(4), 4u);
  EXPECT_EQ(theoretical_peak(5), 4u);
  EXPECT_EQ(theoretical_peak(10), 32u);
}

struct LinkCase {
  Kind kind;
  u32 n;
};

class PerLinkSuite : public ::testing::TestWithParam<LinkCase> {};

TEST_P(PerLinkSuite, AdversaryAchievesBoundOnEveryLink) {
  const auto [kind, n] = GetParam();
  const u32 N = u32{1} << n;
  for (u32 level = 1; level < n; ++level) {
    for (u32 row = 0; row < N; ++row) {
      const ConferenceSet set =
          adversarial_conference_set(kind, n, level, row);
      u32 through = 0;
      for (const Conference& c : set.conferences())
        if (uses_link(kind, n, c.members(), level, row)) ++through;
      EXPECT_EQ(through, min::r1_bound(n, level))
          << min::kind_name(kind) << " level=" << level << " row=" << row;
      // And the measured profile confirms the sharing.
      const MultiplicityProfile prof = measure_multiplicity(kind, n, set);
      EXPECT_GE(prof.per_level[level], min::r1_bound(n, level));
    }
  }
}

TEST_P(PerLinkSuite, ExactPackingEqualsClosedFormOnEveryLink) {
  const auto [kind, n] = GetParam();
  const u32 N = u32{1} << n;
  for (u32 level = 0; level <= n; ++level)
    for (u32 row = 0; row < N; ++row)
      EXPECT_EQ(exhaustive_link_packing(kind, n, level, row),
                min::r1_bound(n, level))
          << min::kind_name(kind) << " level=" << level << " row=" << row;
}

TEST_P(PerLinkSuite, MeasuredNeverExceedsClosedForm) {
  // Upper-bound side of R1 on random conference sets.
  const auto [kind, n] = GetParam();
  const MonteCarloResult mc = monte_carlo_multiplicity(
      kind, n, /*conference_count=*/(u32{1} << n) / 2, 2, 4,
      PlacementPolicy::kRandom, /*trials=*/40, /*seed=*/99);
  EXPECT_LE(mc.max_peak, theoretical_peak(n));
}

std::vector<LinkCase> link_cases() {
  std::vector<LinkCase> cases;
  for (Kind kind : min::kAllKinds)
    for (u32 n : {2u, 3u, 4u, 5u}) cases.push_back({kind, n});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, PerLinkSuite, ::testing::ValuesIn(link_cases()),
    [](const ::testing::TestParamInfo<LinkCase>& info) {
      return testutil::param_name(info.param.kind, info.param.n);
    });

// --- R2: aligned-block placement ----------------------------------------

TEST(R2Exhaustive, AlignedPlacementMatchesClosedForm) {
  for (Kind kind : min::kAllKinds) {
    for (u32 n : {2u, 3u, 4u}) {
      const MultiplicityProfile prof = exhaustive_aligned_max(kind, n);
      for (u32 level = 0; level <= n; ++level)
        EXPECT_EQ(prof.per_level[level],
                  theoretical_aligned_max(kind, n, level))
            << min::kind_name(kind) << " n=" << n << " level=" << level;
    }
  }
}

TEST(R2Exhaustive, N32AlignedStillMatches) {
  // The largest feasible exhaustive aligned search (458k configurations for
  // baseline; conflict-free for the orthogonal-window topologies).
  for (Kind kind : {Kind::kBaseline, Kind::kIndirectCube}) {
    const u32 n = 5;
    const MultiplicityProfile prof = exhaustive_aligned_max(kind, n);
    for (u32 level = 0; level <= n; ++level)
      EXPECT_EQ(prof.per_level[level], theoretical_aligned_max(kind, n, level))
          << min::kind_name(kind) << " level=" << level;
  }
}

TEST(R2ClosedForm, SplitsTheClass) {
  const u32 n = 8;
  for (u32 level = 1; level < n; ++level) {
    EXPECT_EQ(theoretical_aligned_max(Kind::kOmega, n, level), 1u);
    EXPECT_EQ(theoretical_aligned_max(Kind::kIndirectCube, n, level), 1u);
    EXPECT_EQ(theoretical_aligned_max(Kind::kButterfly, n, level), 1u);
    EXPECT_EQ(theoretical_aligned_max(Kind::kReverseOmega, n, level), 1u);
    EXPECT_EQ(theoretical_aligned_max(Kind::kBaseline, n, level),
              u32{1} << (std::min(level, n - level) - 1));
    EXPECT_EQ(theoretical_aligned_max(Kind::kFlip, n, level),
              u32{1} << (std::min(level, n - level) - 1));
  }
}

TEST(R2Adversary, BaselineFlipPairsShareOneLink) {
  for (Kind kind : {Kind::kBaseline, Kind::kFlip}) {
    for (u32 n : {4u, 6u, 8u}) {
      const u32 level = n / 2;
      const ConferenceSet set = aligned_adversarial_set(kind, n, level);
      EXPECT_EQ(set.size(), std::size_t{1} << (n / 2 - 1));
      const MultiplicityProfile prof = measure_multiplicity(kind, n, set);
      EXPECT_EQ(prof.per_level[level],
                theoretical_aligned_max(kind, n, level))
          << min::kind_name(kind) << " n=" << n;
    }
  }
}

TEST(R2MonteCarlo, BuddyPlacementConflictFreeForOrthogonalWindows) {
  for (Kind kind : {Kind::kOmega, Kind::kIndirectCube, Kind::kButterfly,
                    Kind::kReverseOmega}) {
    for (u32 n : {4u, 6u}) {
      const MonteCarloResult mc = monte_carlo_multiplicity(
          kind, n, (u32{1} << n) / 4, 2, 8, PlacementPolicy::kBuddy,
          /*trials=*/100, /*seed=*/7);
      EXPECT_EQ(mc.max_peak, 1u)
          << min::kind_name(kind) << " n=" << n
          << ": buddy placement must never create link conflicts";
    }
  }
}

TEST(R2MonteCarlo, RandomPlacementDoesConflictInOrthogonalWindows) {
  // Contrast case: without aligned placement, conflicts appear quickly.
  const MonteCarloResult mc = monte_carlo_multiplicity(
      Kind::kIndirectCube, 6, 16, 2, 8, PlacementPolicy::kRandom,
      /*trials=*/100, /*seed=*/8);
  EXPECT_GT(mc.max_peak, 1u);
}

// --- R3 and general accounting -------------------------------------------

TEST(R3BoundedConcurrency, PeakBoundedByConferenceCount) {
  for (Kind kind : min::kAllKinds) {
    const u32 n = 6;
    for (u32 g : {2u, 3u, 4u}) {
      const MonteCarloResult mc = monte_carlo_multiplicity(
          kind, n, g, 2, 6, PlacementPolicy::kRandom, 60, 21);
      EXPECT_LE(mc.max_peak, g) << min::kind_name(kind) << " g=" << g;
    }
  }
}

TEST(Measure, EmptySetIsAllZero) {
  const ConferenceSet set(16);
  const MultiplicityProfile prof =
      measure_multiplicity(Kind::kOmega, 4, set);
  for (u32 v : prof.per_level) EXPECT_EQ(v, 0u);
  EXPECT_EQ(prof.peak, 0u);
}

TEST(Measure, SingleConferenceHasMultiplicityOne) {
  ConferenceSet set(16);
  set.add(Conference(0, {0, 5, 9}));
  const MultiplicityProfile prof =
      measure_multiplicity(Kind::kBaseline, 4, set);
  for (u32 level = 0; level <= 4; ++level)
    EXPECT_EQ(prof.per_level[level], 1u);
}

TEST(Measure, ExternalLevelsNeverConflict) {
  // Disjointness makes levels 0 and n multiplicity at most 1 always.
  util::Rng rng(5);
  for (Kind kind : min::kAllKinds) {
    const u32 n = 5;
    const MonteCarloResult ignored = monte_carlo_multiplicity(
        kind, n, 6, 2, 5, PlacementPolicy::kFirstFit, 20, 3);
    (void)ignored;
    // Direct check on a specific set:
    ConferenceSet set(32);
    set.add(Conference(0, {0, 7, 21}));
    set.add(Conference(1, {1, 8, 22}));
    const MultiplicityProfile prof = measure_multiplicity(kind, n, set);
    EXPECT_LE(prof.per_level[0], 1u);
    EXPECT_LE(prof.per_level[n], 1u);
  }
}

TEST(ConferenceSet, EnforcesDisjointness) {
  ConferenceSet set(8);
  set.add(Conference(0, {0, 1}));
  EXPECT_THROW(set.add(Conference(1, {1, 2})), Error);
  EXPECT_EQ(set.owner_of(0), 0);
  EXPECT_EQ(set.owner_of(5), -1);
  EXPECT_EQ(set.occupied_ports(), 2u);
}

TEST(Conference, AlignedSpan) {
  const Conference c(0, {8, 9, 10, 11});
  const auto span = c.aligned_span(4);
  EXPECT_EQ(span.base, 8u);
  EXPECT_EQ(span.bits, 2u);
  const Conference wide(1, {0, 15});
  EXPECT_EQ(wide.aligned_span(4).bits, 4u);
  EXPECT_EQ(wide.aligned_span(4).base, 0u);
}

TEST(Conference, RequiresTwoMembers) {
  EXPECT_THROW(Conference(0, {5}), Error);
  EXPECT_THROW(Conference(0, {5, 5}), Error);  // dedup leaves one
}

TEST(MonteCarlo, ReproducibleAcrossRuns) {
  const auto a = monte_carlo_multiplicity(Kind::kOmega, 5, 4, 2, 6,
                                          PlacementPolicy::kRandom, 50, 42);
  const auto b = monte_carlo_multiplicity(Kind::kOmega, 5, 4, 2, 6,
                                          PlacementPolicy::kRandom, 50, 42);
  EXPECT_EQ(a.max_peak, b.max_peak);
  EXPECT_EQ(a.peak_histogram, b.peak_histogram);
  EXPECT_DOUBLE_EQ(a.peak.mean(), b.peak.mean());
}

TEST(MonteCarlo, HistogramSumsToTrials) {
  const auto mc = monte_carlo_multiplicity(Kind::kBaseline, 5, 4, 2, 4,
                                           PlacementPolicy::kFirstFit, 64, 5);
  u32 total = 0;
  for (u32 c : mc.peak_histogram) total += c;
  // 4 conferences of <= 4 members always fit in 32 ports: no failures.
  EXPECT_EQ(mc.placement_failures, 0u);
  EXPECT_EQ(total, 64u);
  EXPECT_EQ(total, mc.peak.count());
}

}  // namespace
}  // namespace confnet::conf
