// Routing equivalence: destination-tag routing, window-greedy graph routing
// and the closed-form self-routing formulas must produce the identical
// unique path for every (src, dst) pair of every topology — the
// "simpler self-routing algorithm" claim, verified three ways.
#include <gtest/gtest.h>

#include "test_util.hpp"

#include "min/network.hpp"
#include "min/selfroute.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace confnet::min {
namespace {

struct Case {
  Kind kind;
  u32 n;
};

class RouteSuite : public ::testing::TestWithParam<Case> {};

TEST_P(RouteSuite, PathEndpointsCorrect) {
  const auto [kind, n] = GetParam();
  const Network net = make_network(kind, n);
  for (u32 s = 0; s < net.size(); ++s) {
    for (u32 d = 0; d < net.size(); ++d) {
      const auto rows = net.route_rows(s, d);
      ASSERT_EQ(rows.size(), n + 1);
      EXPECT_EQ(rows.front(), s);
      EXPECT_EQ(rows.back(), d);
    }
  }
}

TEST_P(RouteSuite, DestinationTagMatchesGenericGreedy) {
  const auto [kind, n] = GetParam();
  const Network net = make_network(kind, n);
  for (u32 s = 0; s < net.size(); ++s)
    for (u32 d = 0; d < net.size(); ++d)
      EXPECT_EQ(net.route_rows(s, d), net.route_rows_generic(s, d))
          << kind_name(kind) << " s=" << s << " d=" << d;
}

TEST_P(RouteSuite, ClosedFormMatchesDestinationTag) {
  const auto [kind, n] = GetParam();
  const Network net = make_network(kind, n);
  for (u32 s = 0; s < net.size(); ++s)
    for (u32 d = 0; d < net.size(); ++d)
      EXPECT_EQ(path_rows(kind, n, s, d), net.route_rows(s, d))
          << kind_name(kind) << " s=" << s << " d=" << d;
}

TEST_P(RouteSuite, PathHopsAreGraphEdges) {
  const auto [kind, n] = GetParam();
  const Network net = make_network(kind, n);
  util::Rng rng(123);
  for (int trial = 0; trial < 200; ++trial) {
    const u32 s = static_cast<u32>(rng.below(net.size()));
    const u32 d = static_cast<u32>(rng.below(net.size()));
    const auto rows = net.route_rows(s, d);
    for (u32 level = 0; level < n; ++level) {
      const auto succ = net.successors(level, rows[level]);
      EXPECT_TRUE(succ[0] == rows[level + 1] || succ[1] == rows[level + 1]);
    }
  }
}

TEST_P(RouteSuite, PathsToSameDestinationMerge) {
  // Banyan fan-in: once two paths to the same destination meet at a level,
  // they are identical from there on (the combining property fan-in relies
  // on).
  const auto [kind, n] = GetParam();
  const Network net = make_network(kind, n);
  util::Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    const u32 d = static_cast<u32>(rng.below(net.size()));
    const u32 s1 = static_cast<u32>(rng.below(net.size()));
    const u32 s2 = static_cast<u32>(rng.below(net.size()));
    const auto r1 = path_rows(kind, n, s1, d);
    const auto r2 = path_rows(kind, n, s2, d);
    bool merged = false;
    for (u32 level = 0; level <= n; ++level) {
      if (merged) {
        EXPECT_EQ(r1[level], r2[level]);
      } else if (r1[level] == r2[level]) {
        merged = true;
      }
    }
    EXPECT_TRUE(merged);  // at the latest at level n
  }
}

TEST_P(RouteSuite, PathsFromSameSourceDiverge) {
  // Banyan fan-out: once two paths from one source split, they never
  // re-join (no multipath).
  const auto [kind, n] = GetParam();
  const Network net = make_network(kind, n);
  util::Rng rng(78);
  for (int trial = 0; trial < 100; ++trial) {
    const u32 s = static_cast<u32>(rng.below(net.size()));
    const u32 d1 = static_cast<u32>(rng.below(net.size()));
    const u32 d2 = static_cast<u32>(rng.below(net.size()));
    if (d1 == d2) continue;
    const auto r1 = path_rows(kind, n, s, d1);
    const auto r2 = path_rows(kind, n, s, d2);
    bool split = false;
    for (u32 level = 0; level <= n; ++level) {
      if (split) {
        EXPECT_NE(r1[level], r2[level]);
      } else if (r1[level] != r2[level]) {
        split = true;
      }
    }
  }
}

std::vector<Case> route_cases() {
  std::vector<Case> cases;
  for (Kind kind : kAllKinds)
    for (u32 n : {1u, 2u, 3u, 4u, 5u}) cases.push_back({kind, n});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, RouteSuite, ::testing::ValuesIn(route_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      return testutil::param_name(info.param.kind, info.param.n);
    });

TEST(RouteLargeSpotChecks, N1024) {
  // Closed form vs destination-tag on a large instance, sampled.
  for (Kind kind : kAllKinds) {
    const u32 n = 10;
    const Network net = make_network(kind, n);
    util::Rng rng(5);
    for (int trial = 0; trial < 500; ++trial) {
      const u32 s = static_cast<u32>(rng.below(net.size()));
      const u32 d = static_cast<u32>(rng.below(net.size()));
      EXPECT_EQ(path_rows(kind, n, s, d), net.route_rows(s, d));
    }
  }
}

TEST(RouteLargeSpotChecks, TableFreeAtOneMillionPorts) {
  // N = 2^20: the network is its closed-form stage wiring only, so building
  // one is cheap at any size; destination-tag routing over it still agrees
  // with the closed-form path.
  for (Kind kind : kAllKinds) {
    const u32 n = 20;
    const Network net = make_network(kind, n);
    util::Rng rng(20);
    for (int trial = 0; trial < 300; ++trial) {
      const u32 s = static_cast<u32>(rng.below(net.size()));
      const u32 d = static_cast<u32>(rng.below(net.size()));
      ASSERT_EQ(net.route_rows(s, d), path_rows(kind, n, s, d))
          << kind_name(kind) << " " << s << " -> " << d;
    }
  }
}

TEST(RouteErrors, OutOfRangeThrows) {
  const Network net = make_network(Kind::kOmega, 3);
  EXPECT_THROW((void)net.route_rows(8, 0), Error);
  EXPECT_THROW((void)net.route_rows(0, 9), Error);
  EXPECT_THROW((void)path_row(Kind::kOmega, 3, 0, 0, 4), Error);
}

}  // namespace
}  // namespace confnet::min
