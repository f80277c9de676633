// Structural property suite over the whole class: every named topology must
// be banyan (unique paths), have full access and uniform window sizes —
// the preconditions of all conference-conflict results.
#include "min/topology.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

#include "min/banyan.hpp"
#include "min/network.hpp"
#include "util/error.hpp"

namespace confnet::min {
namespace {

struct Case {
  Kind kind;
  u32 n;
};

class TopologySuite : public ::testing::TestWithParam<Case> {};

TEST_P(TopologySuite, HasNStagesAndCorrectSize) {
  const auto [kind, n] = GetParam();
  const Topology topo = make_topology(kind, n);
  EXPECT_EQ(topo.n(), n);
  EXPECT_EQ(topo.size(), u32{1} << n);
  EXPECT_EQ(topo.stages().size(), n);
  EXPECT_EQ(topo.kind(), kind);
}

TEST_P(TopologySuite, EveryStageConsumesEveryDestinationBitOnce) {
  const auto [kind, n] = GetParam();
  const Topology topo = make_topology(kind, n);
  std::vector<bool> used(n, false);
  for (const auto& stage : topo.stages()) {
    ASSERT_LT(stage.routing_bit, n);
    EXPECT_FALSE(used[stage.routing_bit]);
    used[stage.routing_bit] = true;
  }
}

TEST_P(TopologySuite, IsBanyan) {
  const auto [kind, n] = GetParam();
  const Network net = make_network(kind, n);
  const PathCensus census = count_paths(net);
  EXPECT_EQ(census.min_paths, 1u);
  EXPECT_EQ(census.max_paths, 1u);
  EXPECT_EQ(census.total_paths,
            static_cast<u64>(net.size()) * net.size());
  EXPECT_TRUE(is_banyan(net));
  EXPECT_TRUE(has_full_access(net));
}

TEST_P(TopologySuite, UniformWindowCardinalities) {
  const auto [kind, n] = GetParam();
  const Network net = make_network(kind, n);
  EXPECT_TRUE(has_uniform_windows(net));
}

TEST_P(TopologySuite, SuccessorsAndPredecessorsAreInverse) {
  const auto [kind, n] = GetParam();
  const Network net = make_network(kind, n);
  for (u32 level = 0; level < n; ++level) {
    for (u32 row = 0; row < net.size(); ++row) {
      for (u32 next : net.successors(level, row)) {
        const auto preds = net.predecessors(level + 1, next);
        EXPECT_TRUE(preds[0] == row || preds[1] == row)
            << kind_name(kind) << " level " << level << " row " << row;
      }
    }
  }
}

TEST_P(TopologySuite, SwitchIndexingConsistent) {
  const auto [kind, n] = GetParam();
  const Network net = make_network(kind, n);
  for (u32 stage = 1; stage <= n; ++stage) {
    // Every switch has exactly two input rows and two output rows.
    std::vector<u32> in_count(net.size() / 2, 0), out_count(net.size() / 2, 0);
    for (u32 row = 0; row < net.size(); ++row) {
      ++in_count[net.switch_of_input(stage, row)];
      ++out_count[net.switch_of_output(stage, row)];
    }
    for (u32 w = 0; w < net.size() / 2; ++w) {
      EXPECT_EQ(in_count[w], 2u);
      EXPECT_EQ(out_count[w], 2u);
    }
  }
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (Kind kind : kAllKinds)
    for (u32 n : {1u, 2u, 3u, 4u, 5u, 6u}) cases.push_back({kind, n});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, TopologySuite, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      return testutil::param_name(info.param.kind, info.param.n);
    });

TEST(TopologyFactory, RejectsBadN) {
  EXPECT_THROW(make_topology(Kind::kOmega, 0), Error);
  EXPECT_THROW(make_topology(Kind::kOmega, 21), Error);
}

TEST(KindNames, RoundTrip) {
  for (Kind k : kAllKinds) EXPECT_EQ(kind_from_name(kind_name(k)), k);
  EXPECT_THROW((void)kind_from_name("not-a-network"), Error);
}

TEST(KindNames, PaperKindsAreSubset) {
  for (Kind k : kPaperKinds) {
    bool found = false;
    for (Kind a : kAllKinds) found = found || a == k;
    EXPECT_TRUE(found);
  }
}

TEST(LinkRef, OrderingAndIndex) {
  const LinkRef a{1, 2}, b{1, 3}, c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(link_index(LinkRef{2, 5}, 16), 2u * 16 + 5);
}

}  // namespace
}  // namespace confnet::min
