// Hardware cost model: closed-form counts, asymptotic orderings between
// the designs (the "less hardware cost" comparison the paper asks about).
#include "analysis/cost/cost.hpp"

#include <gtest/gtest.h>

namespace confnet::cost {
namespace {

using conf::DilationProfile;

TEST(Cost, UnitDilationDirectCounts) {
  // N=16, n=4: 32 switches, each a 2x2 (4 crosspoints, 2 combiners).
  const CostBreakdown c = direct_cost(4, DilationProfile::uniform(4, 1));
  EXPECT_EQ(c.switch_modules, 32u);
  EXPECT_EQ(c.crosspoints, 32u * 4);
  EXPECT_EQ(c.combiner_gates, 32u * 2);
  EXPECT_EQ(c.link_channels, 48u);  // 3 interstage levels x 16 rows
  EXPECT_EQ(c.mux_count, 0u);
  EXPECT_EQ(c.mux_gates, 0u);
}

TEST(Cost, EnhancedCubeAddsMuxes) {
  const CostBreakdown plain = direct_cost(4, DilationProfile::uniform(4, 1));
  const CostBreakdown enhanced = enhanced_cube_cost(4);
  EXPECT_EQ(enhanced.crosspoints, plain.crosspoints);
  EXPECT_EQ(enhanced.mux_count, 16u);
  EXPECT_EQ(enhanced.mux_gates, 16u * 4);  // (n+1)-to-1 muxes cost n gates
  EXPECT_GT(enhanced.total_gates(), plain.total_gates());
}

TEST(Cost, FullDilationIsQuadraticish) {
  // At n=10 (N=1024) full dilation crosspoints dwarf unit dilation by
  // roughly the middle-stage factor N.
  const CostBreakdown unit = direct_cost(10, DilationProfile::uniform(10, 1));
  const CostBreakdown full = direct_cost(10, DilationProfile::full(10));
  EXPECT_GT(full.crosspoints, unit.crosspoints * 100);
  EXPECT_GT(full.link_channels, unit.link_channels * 10);
}

TEST(Cost, BoundedDilationInterpolates) {
  const u32 n = 8;
  const auto unit = direct_cost(n, DilationProfile::uniform(n, 1));
  const auto g4 = direct_cost(n, DilationProfile::bounded(n, 4));
  const auto full = direct_cost(n, DilationProfile::full(n));
  EXPECT_LE(unit.total_gates(), g4.total_gates());
  EXPECT_LE(g4.total_gates(), full.total_gates());
  EXPECT_LE(unit.link_channels, g4.link_channels);
  EXPECT_LE(g4.link_channels, full.link_channels);
}

TEST(Cost, CrossbarIsQuadratic) {
  const CostBreakdown xb = crossbar_cost(6);
  EXPECT_EQ(xb.crosspoints, 64u * 64u);
  EXPECT_EQ(xb.combiner_gates, 64u);
}

TEST(Cost, HeadlineOrderingAtScale) {
  // The paper's punchline at N=1024: unit-dilation direct adoption (with
  // system placement) < enhanced cube (adds muxes) << crossbar. Making a
  // direct network nonblocking for *arbitrary* placement (full dilation)
  // costs crossbar-order hardware — the placement policy, not the fabric,
  // is what buys the saving.
  const u32 n = 10;
  const auto direct1 = direct_cost(n, DilationProfile::uniform(n, 1));
  const auto enhanced = enhanced_cube_cost(n);
  const auto directfull = direct_cost(n, DilationProfile::full(n));
  const auto xbar = crossbar_cost(n);
  EXPECT_LT(direct1.total_gates(), enhanced.total_gates());
  EXPECT_LT(enhanced.total_gates(), xbar.total_gates());
  // Full dilation is within a small constant factor of a crossbar (both
  // are Theta(N^2) in crosspoints) — and strictly worse here.
  EXPECT_GT(directfull.total_gates(), xbar.total_gates() / 4);
  EXPECT_LT(directfull.total_gates(), xbar.total_gates() * 4);
}

TEST(Cost, GrowsMonotonicallyWithN) {
  u64 prev = 0;
  for (u32 n = 2; n <= 12; ++n) {
    const u64 gates = enhanced_cube_cost(n).total_gates();
    EXPECT_GT(gates, prev);
    prev = gates;
  }
}

TEST(Cost, TotalGatesSumsComponents) {
  const CostBreakdown c = enhanced_cube_cost(5);
  EXPECT_EQ(c.total_gates(), c.crosspoints + c.combiner_gates + c.mux_gates);
}

}  // namespace
}  // namespace confnet::cost
