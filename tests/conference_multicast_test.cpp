// Multicast trees and their conflict multiplicity.
#include "analysis/conference/multicast.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

#include "conference/subnetwork.hpp"
#include "min/network.hpp"
#include "min/windows.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace confnet::conf {
namespace {

using min::Kind;

TEST(Multicast, NormalizesReceivers) {
  const Multicast m(0, 3, {5, 1, 5});
  EXPECT_EQ(m.receivers(), (std::vector<u32>{1, 5}));
  EXPECT_EQ(m.source(), 3u);
  EXPECT_THROW(Multicast(0, 1, {}), Error);
}

TEST(MulticastSet, EnforcesResourceExclusivity) {
  MulticastSet set(8);
  set.add(Multicast(0, 0, {4, 5}));
  EXPECT_THROW(set.add(Multicast(1, 0, {6})), Error);   // source reused
  EXPECT_THROW(set.add(Multicast(1, 1, {5})), Error);   // receiver reused
  set.add(Multicast(1, 1, {6}));
  EXPECT_EQ(set.size(), 2u);
}

TEST(MulticastTree, SpansSourceAndReceivers) {
  for (Kind kind : min::kAllKinds) {
    const u32 n = 4;
    const std::vector<u32> receivers{2, 9, 14};
    const auto tree = multicast_tree_links(kind, n, 5, receivers);
    EXPECT_EQ(tree.nested()[0], (std::vector<u32>{5}));
    EXPECT_EQ(tree.nested()[n], receivers);
    // The tree is exactly the union of source->receiver paths, so per
    // level the row count is between 1 and |receivers|.
    for (u32 level = 0; level <= n; ++level) {
      EXPECT_GE(tree[level].size(), 1u);
      EXPECT_LE(tree[level].size(), receivers.size());
    }
  }
}

TEST(MulticastTree, EqualsWindowPredicate) {
  util::Rng rng(3);
  for (Kind kind : min::kAllKinds) {
    const u32 n = 5;
    const u32 N = 32;
    const u32 source = 7;
    auto receivers = rng.sample_distinct(N, 6);
    std::sort(receivers.begin(), receivers.end());
    const auto tree = multicast_tree_links(kind, n, source, receivers);
    for (u32 level = 0; level <= n; ++level)
      for (u32 row = 0; row < N; ++row)
        EXPECT_EQ(std::binary_search(tree[level].begin(), tree[level].end(),
                                     row),
                  multicast_uses_link(kind, n, source, receivers, level, row))
            << min::kind_name(kind) << " level=" << level << " row=" << row;
  }
}

TEST(MulticastTree, BroadcastUsesEveryOutputLink) {
  const u32 n = 3;
  std::vector<u32> everyone{0, 1, 2, 3, 4, 5, 6, 7};
  for (Kind kind : min::kAllKinds) {
    const auto tree = multicast_tree_links(kind, n, 0, everyone);
    EXPECT_EQ(tree[n].size(), 8u);
    // A broadcast doubles its rows per level: 1, 2, 4, 8.
    for (u32 level = 0; level <= n; ++level)
      EXPECT_EQ(tree[level].size(), u32{1} << level);
  }
}

TEST(MulticastTree, IsSubsetOfConferenceSubnetwork) {
  // source + receivers as a conference: the multicast tree is contained.
  util::Rng rng(5);
  for (Kind kind : min::kAllKinds) {
    const u32 n = 5;
    auto members = rng.sample_distinct(32, 5);
    std::sort(members.begin(), members.end());
    const u32 source = members[0];
    const std::vector<u32> receivers(members.begin() + 1, members.end());
    const auto tree = multicast_tree_links(kind, n, source, receivers);
    const auto sub = all_pairs_links(kind, n, members);
    for (u32 level = 0; level <= n; ++level)
      for (u32 row : tree[level])
        EXPECT_TRUE(
            std::binary_search(sub[level].begin(), sub[level].end(), row));
  }
}

struct Case {
  Kind kind;
  u32 n;
};
class MulticastConflictSuite : public ::testing::TestWithParam<Case> {};

TEST_P(MulticastConflictSuite, AdversaryMeetsClosedForm) {
  const auto [kind, n] = GetParam();
  const u32 N = u32{1} << n;
  for (u32 level = 1; level < n; ++level) {
    for (u32 row = 0; row < N; row += 3) {
      const MulticastSet set =
          multicast_adversarial_set(kind, n, level, row);
      EXPECT_EQ(set.size(), min::r1_bound(n, level));
      u32 through = 0;
      for (const Multicast& m : set.multicasts())
        if (multicast_uses_link(kind, n, m.source(), m.receivers(), level,
                                row))
          ++through;
      EXPECT_EQ(through, min::r1_bound(n, level))
          << min::kind_name(kind) << " level=" << level << " row=" << row;
      const MulticastProfile prof =
          measure_multicast_multiplicity(kind, n, set);
      EXPECT_GE(prof.per_level[level], min::r1_bound(n, level));
    }
  }
}

TEST_P(MulticastConflictSuite, RandomSetsRespectBound) {
  const auto [kind, n] = GetParam();
  const u32 N = u32{1} << n;
  util::Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    MulticastSet set(N);
    std::vector<u32> sources = rng.sample_distinct(N, N / 4);
    std::vector<u32> sinks = rng.sample_distinct(N, N / 2);
    std::size_t sink_pos = 0;
    for (u32 i = 0; i < sources.size() && sink_pos + 2 <= sinks.size(); ++i) {
      std::vector<u32> receivers{sinks[sink_pos], sinks[sink_pos + 1]};
      sink_pos += 2;
      set.add(Multicast(i, sources[i], std::move(receivers)));
    }
    const MulticastProfile prof = measure_multicast_multiplicity(kind, n, set);
    for (u32 level = 0; level <= n; ++level)
      EXPECT_LE(prof.per_level[level], min::r1_bound(n, level));
  }
}

std::vector<Case> cases() {
  std::vector<Case> out;
  for (Kind kind : min::kAllKinds)
    for (u32 n : {2u, 3u, 4u, 5u}) out.push_back({kind, n});
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, MulticastConflictSuite, ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      return testutil::param_name(info.param.kind, info.param.n);
    });

TEST(MulticastProfile, EmptySetIsZero) {
  const MulticastSet set(16);
  const auto prof = measure_multicast_multiplicity(Kind::kOmega, 4, set);
  for (u32 v : prof.per_level) EXPECT_EQ(v, 0u);
}

}  // namespace
}  // namespace confnet::conf
