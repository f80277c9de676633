// Subnetwork computation: the closed-form ALL_PAIRS factorization must
// equal the window-based generic computation and the explicit union of
// routed paths; fan-in trees and the enhanced-cube realization must satisfy
// their structural contracts.
#include "conference/subnetwork.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

#include <set>

#include "min/selfroute.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace confnet::conf {
namespace {

using min::Kind;

struct Case {
  Kind kind;
  u32 n;
};

class SubnetworkSuite : public ::testing::TestWithParam<Case> {};

std::vector<u32> random_members(util::Rng& rng, u32 N, u32 size) {
  auto m = rng.sample_distinct(N, size);
  std::sort(m.begin(), m.end());
  return m;
}

TEST_P(SubnetworkSuite, ClosedFormEqualsGeneric) {
  const auto [kind, n] = GetParam();
  const min::WindowTable wt(min::Network(kind, n));
  const u32 N = wt.network().size();
  util::Rng rng(42);
  for (int trial = 0; trial < 30; ++trial) {
    const u32 size = 2 + static_cast<u32>(rng.below(N - 1));
    const auto members = random_members(rng, N, size);
    EXPECT_EQ(all_pairs_links(kind, n, members),
              all_pairs_links_generic(wt, members))
        << min::kind_name(kind) << " trial " << trial;
  }
}

TEST_P(SubnetworkSuite, EqualsUnionOfExplicitPaths) {
  const auto [kind, n] = GetParam();
  util::Rng rng(7);
  const u32 N = u32{1} << n;
  for (int trial = 0; trial < 10; ++trial) {
    const u32 size = 2 + static_cast<u32>(rng.below(std::min(N - 1, 6u)));
    const auto members = random_members(rng, N, size);
    std::vector<std::set<u32>> union_rows(n + 1);
    for (u32 i : members)
      for (u32 j : members) {
        const auto rows = min::path_rows(kind, n, i, j);
        for (u32 level = 0; level <= n; ++level)
          union_rows[level].insert(rows[level]);
      }
    const auto links = all_pairs_links(kind, n, members).nested();
    for (u32 level = 0; level <= n; ++level) {
      const std::vector<u32> want(union_rows[level].begin(),
                                  union_rows[level].end());
      EXPECT_EQ(links[level], want)
          << min::kind_name(kind) << " level " << level;
    }
  }
}

TEST_P(SubnetworkSuite, UsesLinkAgreesWithMembership) {
  const auto [kind, n] = GetParam();
  util::Rng rng(11);
  const u32 N = u32{1} << n;
  const auto members = random_members(rng, N, std::min(N, 5u));
  const LevelLinks links = all_pairs_links(kind, n, members);
  for (u32 level = 0; level <= n; ++level) {
    for (u32 row = 0; row < N; ++row) {
      const bool in_links = std::binary_search(links[level].begin(),
                                               links[level].end(), row);
      EXPECT_EQ(uses_link(kind, n, members, level, row), in_links)
          << min::kind_name(kind) << " level=" << level << " row=" << row;
    }
  }
}

TEST_P(SubnetworkSuite, ExternalLevelsAreExactlyTheMembers) {
  const auto [kind, n] = GetParam();
  util::Rng rng(13);
  const u32 N = u32{1} << n;
  const auto members = random_members(rng, N, std::min(N, 4u));
  const LevelLinks links = all_pairs_links(kind, n, members);
  EXPECT_EQ(links.nested().front(), members);
  EXPECT_EQ(links.nested().back(), members);
}

TEST_P(SubnetworkSuite, MonotoneInMembers) {
  // Adding members can only grow the subnetwork.
  const auto [kind, n] = GetParam();
  const u32 N = u32{1} << n;
  if (N < 4) return;
  const std::vector<u32> small{0, N - 1};
  const std::vector<u32> large{0, 1, N - 2, N - 1};
  const LevelLinks ls = all_pairs_links(kind, n, small);
  const LevelLinks ll = all_pairs_links(kind, n, large);
  for (u32 level = 0; level <= n; ++level)
    for (u32 row : ls[level])
      EXPECT_TRUE(std::binary_search(ll[level].begin(), ll[level].end(), row));
}

TEST_P(SubnetworkSuite, FanInTreeIsSubsetOfAllPairs) {
  const auto [kind, n] = GetParam();
  util::Rng rng(17);
  const u32 N = u32{1} << n;
  const auto members = random_members(rng, N, std::min(N, 4u));
  const LevelLinks ap = all_pairs_links(kind, n, members);
  for (u32 root : members) {
    const LevelLinks tree = fanin_tree_links(kind, n, members, root);
    for (u32 level = 0; level <= n; ++level) {
      EXPECT_LE(tree[level].size(), ap[level].size());
      for (u32 row : tree[level])
        EXPECT_TRUE(
            std::binary_search(ap[level].begin(), ap[level].end(), row));
    }
    // The tree narrows to exactly one link at the root side.
    EXPECT_EQ(tree[n].size(), 1u);
    EXPECT_EQ(tree[n][0], root);
    // And spans exactly the members at the leaf side.
    EXPECT_EQ(tree.nested()[0], members);
  }
}

std::vector<Case> cases() {
  std::vector<Case> out;
  for (Kind kind : min::kAllKinds)
    for (u32 n : {2u, 3u, 4u, 5u}) out.push_back({kind, n});
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SubnetworkSuite, ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      return testutil::param_name(info.param.kind, info.param.n);
    });

// The closed form against the window oracle at N = 1024, the size the
// benchmark fabrics run, on seeded member sets of 2..64 ports; also
// through min::path_union reusing one result and parts scratch across
// every set, as FabricState calls it.
TEST(Subnetwork, ClosedFormEqualsGenericAtTen) {
  constexpr u32 n = 10;
  constexpr u32 N = u32{1} << n;
  util::Rng rng(1010);
  LevelLinks reused;
  std::vector<u32> parts;
  for (Kind kind : min::kAllKinds) {
    const min::WindowTable wt(min::Network(kind, n));
    for (int trial = 0; trial < 6; ++trial) {
      const u32 size = 2 + static_cast<u32>(rng.below(63));
      const auto members = random_members(rng, N, size);
      const LevelLinks generic = all_pairs_links_generic(wt, members);
      EXPECT_EQ(all_pairs_links(kind, n, members), generic)
          << min::kind_name(kind) << " trial " << trial;
      min::path_union(kind, n, members, members, n, reused, parts);
      EXPECT_EQ(reused, generic) << min::kind_name(kind) << " trial " << trial;
    }
  }
}

TEST(CubeCompletion, AlignedBlocks) {
  const auto tap = [](std::vector<u32> members) {
    return min::cube_tap_level(members);
  };
  // A full aligned block of 2^j ports completes at level j.
  EXPECT_EQ(tap({8, 9, 10, 11}), 2u);
  EXPECT_EQ(tap({0, 1}), 1u);
  EXPECT_EQ(tap({14, 15}), 1u);
  // Partial occupancy of a block still completes at the block level.
  EXPECT_EQ(tap({8, 11}), 2u);
  // Scattered members need the whole network.
  EXPECT_EQ(tap({0, 15}), 4u);
}

TEST(EnhancedRealization, TrimsAboveTapLevel) {
  const u32 n = 4;
  const auto real = enhanced_cube_realization(n, {4, 5, 6, 7});
  EXPECT_EQ(real.tap_level, 2u);
  for (u32 level = real.tap_level + 1; level <= n; ++level)
    EXPECT_TRUE(real.links[level].empty());
  // Below the tap level the links live inside the block's rows.
  for (u32 level = 0; level <= real.tap_level; ++level)
    for (u32 row : real.links[level]) {
      EXPECT_GE(row, 4u);
      EXPECT_LE(row, 7u);
    }
}

TEST(EnhancedRealization, EveryMemberRowPresentAtTapLevel) {
  const u32 n = 5;
  const std::vector<u32> members{16, 17, 19, 22};
  const auto real = enhanced_cube_realization(n, members);
  for (u32 m : members)
    EXPECT_TRUE(std::binary_search(real.links[real.tap_level].begin(),
                                   real.links[real.tap_level].end(), m));
}

TEST(Subnetwork, TotalLinksCounts) {
  const LevelLinks links{{1, 2}, {0}, {}};
  EXPECT_EQ(total_links(links), 3u);
  EXPECT_EQ(total_links(LevelLinks{}), 0u);
}

TEST(Subnetwork, InputValidation) {
  EXPECT_THROW((void)all_pairs_links(Kind::kOmega, 3, {}), Error);
  EXPECT_THROW((void)all_pairs_links(Kind::kOmega, 3, {9, 1}), Error);
  EXPECT_THROW((void)all_pairs_links(Kind::kOmega, 3, {1, 8}), Error);
}

}  // namespace
}  // namespace confnet::conf
