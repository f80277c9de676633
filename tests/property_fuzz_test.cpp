// Seeded randomized property sweep: one suite instantiated across many RNG
// seeds, each trial cross-checking independent implementations of the same
// quantity on random topologies/sizes/workloads. This is the long-tail
// safety net behind the targeted unit suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/conference/multiplicity.hpp"
#include "conference/designs.hpp"
#include "conference/placement.hpp"
#include "conference/session.hpp"
#include "conference/subnetwork.hpp"
#include "min/faults.hpp"
#include "min/network.hpp"
#include "min/selfroute.hpp"
#include "min/windows.hpp"
#include "switchmod/fabric.hpp"
#include "util/rng.hpp"

namespace confnet {
namespace {

using conf::u32;
using min::Kind;

class FuzzSuite : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  util::Rng rng_{GetParam()};

  Kind random_kind() {
    return min::kAllKinds[rng_.below(min::kAllKinds.size())];
  }
  u32 random_n(u32 lo = 2, u32 hi = 6) {
    return static_cast<u32>(rng_.between(lo, hi));
  }
  std::vector<u32> random_members(u32 N, u32 size) {
    auto m = rng_.sample_distinct(N, size);
    std::sort(m.begin(), m.end());
    return m;
  }
};

TEST_P(FuzzSuite, RoutingTrinityAgrees) {
  const Kind kind = random_kind();
  const u32 n = random_n();
  const min::Network net(kind, n);
  const min::WindowTable wt(net);
  for (int i = 0; i < 50; ++i) {
    const u32 s = static_cast<u32>(rng_.below(net.size()));
    const u32 d = static_cast<u32>(rng_.below(net.size()));
    const auto tag = net.route_rows(s, d);
    EXPECT_EQ(tag, min::route_rows_generic(wt, s, d));
    EXPECT_EQ(tag, min::path_rows(kind, n, s, d));
  }
}

TEST_P(FuzzSuite, SubnetworkFactorizationMatchesWindows) {
  const Kind kind = random_kind();
  const u32 n = random_n();
  const u32 N = u32{1} << n;
  const auto members =
      random_members(N, 2 + static_cast<u32>(rng_.below(N - 2)));
  const auto links = conf::all_pairs_links(kind, n, members);
  for (int probe = 0; probe < 100; ++probe) {
    const u32 level = static_cast<u32>(rng_.below(n + 1));
    const u32 row = static_cast<u32>(rng_.below(N));
    EXPECT_EQ(std::binary_search(links[level].begin(), links[level].end(),
                                 row),
              conf::uses_link(kind, n, members, level, row));
  }
}

TEST_P(FuzzSuite, FabricDeliversExactlyTheGroup) {
  const Kind kind = random_kind();
  const u32 n = random_n(3, 6);
  const u32 N = u32{1} << n;
  const min::Network net(kind, n);
  const sw::Fabric fabric(net, sw::FabricConfig{N, true, true});
  // 2-3 random disjoint groups.
  conf::PortPlacer placer(n, conf::PlacementPolicy::kRandom);
  std::vector<sw::GroupRealization> groups;
  for (u32 id = 0; id < 3; ++id) {
    const u32 size = 2 + static_cast<u32>(rng_.below(5));
    auto ports = placer.place(size, rng_);
    if (!ports) break;
    sw::GroupRealization g;
    g.id = id;
    g.links = conf::all_pairs_links(kind, n, *ports);
    g.members = std::move(*ports);
    groups.push_back(std::move(g));
  }
  const auto report = fabric.evaluate(groups);
  ASSERT_TRUE(report.overflows.empty() ||
              report.max_link_load[n / 2] <= N);
  for (std::size_t gi = 0; gi < groups.size(); ++gi)
    for (std::size_t mi = 0; mi < groups[gi].members.size(); ++mi)
      EXPECT_EQ(report.delivered[gi][mi].values(), groups[gi].members);
}

TEST_P(FuzzSuite, MultiplicityNeverExceedsEitherBound) {
  const Kind kind = random_kind();
  const u32 n = random_n(3, 7);
  const u32 g = 2 + static_cast<u32>(rng_.below(6));
  const auto mc = conf::monte_carlo_multiplicity(
      kind, n, g, 2, 6, conf::PlacementPolicy::kRandom, 10, GetParam());
  EXPECT_LE(mc.max_peak, std::min(g, conf::theoretical_peak(n)));
}

TEST_P(FuzzSuite, BuddyChurnNeverLeaksPorts) {
  const u32 n = random_n(3, 6);
  conf::PortPlacer placer(n, conf::PlacementPolicy::kBuddy);
  std::vector<std::vector<u32>> live;
  for (int step = 0; step < 200; ++step) {
    if (!live.empty() && rng_.chance(0.5)) {
      const auto idx = static_cast<std::size_t>(rng_.below(live.size()));
      placer.release(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      const u32 size = 2 + static_cast<u32>(rng_.below(6));
      if (auto p = placer.place(size, rng_)) live.push_back(std::move(*p));
    }
  }
  u32 held = 0;
  for (const auto& p : live) held += static_cast<u32>(p.size());
  EXPECT_GE(placer.free_ports() + held, held);  // sanity
  for (const auto& p : live) placer.release(p);
  EXPECT_EQ(placer.free_ports(), u32{1} << n);
}

TEST_P(FuzzSuite, FaultedPathsAreExactlyTheWindowHits) {
  const Kind kind = random_kind();
  const u32 n = random_n(3, 6);
  const u32 N = u32{1} << n;
  min::FaultSet faults(n);
  faults.inject_random(0.05, rng_);
  for (int probe = 0; probe < 60; ++probe) {
    const u32 s = static_cast<u32>(rng_.below(N));
    const u32 d = static_cast<u32>(rng_.below(N));
    bool hit = false;
    for (u32 level = 0; level <= n; ++level)
      hit = hit || faults.is_faulty(level, min::path_row(kind, n, s, d, level));
    EXPECT_EQ(min::path_survives(kind, n, s, d, faults), !hit);
  }
}

TEST_P(FuzzSuite, SessionAccountingBalances) {
  const u32 n = random_n(4, 6);
  conf::DirectConferenceNetwork net(random_kind(), n,
                                    conf::DilationProfile::full(n));
  conf::SessionManager mgr(net, conf::PlacementPolicy::kFirstFit);
  std::vector<u32> live;
  for (int step = 0; step < 150; ++step) {
    if (!live.empty() && rng_.chance(0.4)) {
      const auto idx = static_cast<std::size_t>(rng_.below(live.size()));
      mgr.close(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      const auto [r, sid] = mgr.open(2 + static_cast<u32>(rng_.below(4)),
                                     rng_);
      if (sid) live.push_back(*sid);
    }
  }
  const auto& stats = mgr.stats();
  EXPECT_EQ(stats.attempts, stats.accepted + stats.blocked_placement +
                                stats.blocked_capacity);
  EXPECT_EQ(mgr.active_sessions(), live.size());
  EXPECT_EQ(net.active_count(), live.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSuite,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace confnet
