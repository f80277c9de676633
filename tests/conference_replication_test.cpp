// Vertical replication: conflict graph, coloring, plane assignment and the
// dilation/replication correspondence.
#include "analysis/conference/replication.hpp"

#include <gtest/gtest.h>

#include "analysis/conference/multiplicity.hpp"
#include "analysis/cost/cost.hpp"
#include "min/windows.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace confnet::conf {
namespace {

using min::Kind;

TEST(ConflictGraph, DisjointSubnetworksDontConflict) {
  // Aligned blocks in the cube never share links (R2).
  const ConflictGraph g(Kind::kIndirectCube, 4,
                        {{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}, {12, 13, 14}});
  for (std::size_t a = 0; a < g.size(); ++a)
    for (std::size_t b = 0; b < g.size(); ++b)
      EXPECT_EQ(g.conflicts(a, b), false);
  EXPECT_EQ(g.color().color_count, 1u);
}

TEST(ConflictGraph, AdversarialSetIsAClique) {
  const u32 n = 4, level = 2;
  const ConferenceSet set =
      adversarial_conference_set(Kind::kOmega, n, level, 3);
  std::vector<std::vector<u32>> member_sets;
  for (const auto& c : set.conferences()) member_sets.push_back(c.members());
  const ConflictGraph g(Kind::kOmega, n, member_sets);
  // All conferences share one link: pairwise adjacent.
  for (std::size_t a = 0; a < g.size(); ++a)
    for (std::size_t b = a + 1; b < g.size(); ++b)
      EXPECT_TRUE(g.conflicts(a, b));
  const auto coloring = g.color();
  EXPECT_EQ(coloring.color_count, g.size());
  EXPECT_EQ(g.clique_lower_bound(), g.size());
}

TEST(ConflictGraph, ColoringIsProper) {
  util::Rng rng(3);
  for (Kind kind : min::kAllKinds) {
    const u32 n = 5;
    PortPlacer placer(n, PlacementPolicy::kRandom);
    std::vector<std::vector<u32>> member_sets;
    for (int i = 0; i < 8; ++i)
      if (auto p = placer.place(3, rng)) member_sets.push_back(*p);
    const ConflictGraph g(kind, n, member_sets);
    const auto coloring = g.color();
    for (std::size_t a = 0; a < g.size(); ++a)
      for (std::size_t b = a + 1; b < g.size(); ++b) {
        if (g.conflicts(a, b)) {
          EXPECT_NE(coloring.colors[a], coloring.colors[b]);
        }
      }
    EXPECT_GE(coloring.color_count, g.clique_lower_bound());
  }
}

TEST(Replicated, SinglePlaneEqualsUnitDirect) {
  util::Rng rng(5);
  ReplicatedConferenceNetwork rep(Kind::kOmega, 4, 1);
  DirectConferenceNetwork direct(Kind::kOmega, 4,
                                 DilationProfile::uniform(4, 1));
  for (int trial = 0; trial < 30; ++trial) {
    auto members = rng.sample_distinct(16, 2 + rng.below(3));
    std::sort(members.begin(), members.end());
    // Same acceptance decision on a fresh pair of networks.
    ReplicatedConferenceNetwork r2(Kind::kOmega, 4, 1);
    DirectConferenceNetwork d2(Kind::kOmega, 4,
                               DilationProfile::uniform(4, 1));
    EXPECT_EQ(r2.setup(members).has_value(), d2.setup(members).has_value());
  }
}

TEST(Replicated, PlanesAbsorbTheAdversary) {
  // The R1 adversary needs m = min(2^l, 2^(n-l)) planes — and exactly fits.
  const u32 n = 4, level = 2;
  for (Kind kind : min::kAllKinds) {
    const ConferenceSet adversary =
        adversarial_conference_set(kind, n, level, 5);
    const u32 m = min::r1_bound(n, level);
    ReplicatedConferenceNetwork enough(kind, n, m);
    u32 accepted = 0;
    for (const auto& c : adversary.conferences())
      if (enough.setup(c.members()).has_value()) ++accepted;
    EXPECT_EQ(accepted, adversary.size()) << min::kind_name(kind);
    EXPECT_TRUE(enough.verify_delivery());

    ReplicatedConferenceNetwork tight(kind, n, m - 1);
    accepted = 0;
    for (const auto& c : adversary.conferences())
      if (tight.setup(c.members()).has_value()) ++accepted;
    EXPECT_LT(accepted, adversary.size()) << min::kind_name(kind);
    EXPECT_EQ(tight.last_error(), SetupError::kLinkCapacity);
  }
}

TEST(Replicated, PortExclusivityAcrossPlanes) {
  ReplicatedConferenceNetwork rep(Kind::kBaseline, 4, 4);
  ASSERT_TRUE(rep.setup({0, 1}).has_value());
  // Same port in another conference must fail even though other planes
  // have fabric room.
  EXPECT_FALSE(rep.setup({1, 5}).has_value());
  EXPECT_EQ(rep.last_error(), SetupError::kPortBusy);
}

TEST(Replicated, TeardownFreesPlaneAndPorts) {
  ReplicatedConferenceNetwork rep(Kind::kOmega, 3, 2);
  const auto h = rep.setup({0, 1, 2});
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(rep.active_count(), 1u);
  rep.teardown(*h);
  EXPECT_EQ(rep.active_count(), 0u);
  EXPECT_TRUE(rep.setup({0, 1, 2}).has_value());
}

TEST(Replicated, FirstFitPacksLowPlanes) {
  // Non-conflicting conferences all land in plane 0.
  ReplicatedConferenceNetwork rep(Kind::kIndirectCube, 4, 4);
  const auto h1 = rep.setup({0, 1});
  const auto h2 = rep.setup({4, 5, 6, 7});
  ASSERT_TRUE(h1 && h2);
  EXPECT_EQ(rep.plane_of(*h1), 0u);
  EXPECT_EQ(rep.plane_of(*h2), 0u);
  const auto occ = rep.plane_occupancy();
  EXPECT_EQ(occ[0], 2u);
  EXPECT_EQ(occ[1], 0u);
}

TEST(Replicated, MembershipChangesStayInPlane) {
  ReplicatedConferenceNetwork rep(Kind::kOmega, 4, 2);
  const auto h = rep.setup({0, 5});
  ASSERT_TRUE(h.has_value());
  const u32 plane = rep.plane_of(*h);
  ASSERT_TRUE(rep.add_member(*h, 9));
  EXPECT_EQ(rep.plane_of(*h), plane);
  EXPECT_EQ(rep.members_for(*h), (std::vector<u32>{0, 5, 9}));
  ASSERT_TRUE(rep.remove_member(*h, 5));
  EXPECT_EQ(rep.members_for(*h), (std::vector<u32>{0, 9}));
  EXPECT_TRUE(rep.verify_delivery());
  // The freed port is reusable by a new conference.
  EXPECT_TRUE(rep.setup({5, 13}).has_value());
}

TEST(Replicated, CostModelScalesLinearlyPlusMuxes) {
  const auto r1 = cost::replicated_cost(6, 1);
  const auto r4 = cost::replicated_cost(6, 4);
  EXPECT_EQ(r4.crosspoints, 4 * r1.crosspoints);
  EXPECT_EQ(r4.link_channels, 4 * r1.link_channels);
  EXPECT_EQ(r4.mux_count, 2u * 64);
  EXPECT_EQ(r4.mux_gates, 2u * 64 * 3);
  EXPECT_EQ(r1.mux_gates, 0u);
}

TEST(Replicated, ColoringBoundPredictsPlaneDemand) {
  // The greedy coloring count of the conflict graph upper-bounds the
  // planes first-fit needs for the same arrival order... and both are
  // bounded below by the clique bound.
  util::Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    const u32 n = 5;
    PortPlacer placer(n, PlacementPolicy::kRandom);
    std::vector<std::vector<u32>> member_sets;
    for (int i = 0; i < 8; ++i)
      if (auto p = placer.place(2 + rng.below(3), rng))
        member_sets.push_back(*p);
    const ConflictGraph g(Kind::kButterfly, n, member_sets);
    ReplicatedConferenceNetwork rep(Kind::kButterfly, n, 32);
    u32 max_plane = 0;
    for (const auto& members : member_sets) {
      const auto h = rep.setup(members);
      ASSERT_TRUE(h.has_value());
      max_plane = std::max(max_plane, rep.plane_of(*h));
    }
    EXPECT_GE(max_plane + 1, g.clique_lower_bound());
    // First-fit in arrival order is exactly greedy coloring in that order,
    // so it needs at most degree+1 planes.
    u32 max_degree = 0;
    for (std::size_t v = 0; v < g.size(); ++v)
      max_degree = std::max(max_degree, g.degree(v));
    EXPECT_LE(max_plane + 1, max_degree + 1);
  }
}

}  // namespace
}  // namespace confnet::conf
