// Functional fabric tests: signal propagation with fan-in/fan-out, channel
// overflow detection, mux relay taps, and FabricState's incremental load
// matrix against a recount of its admitted groups.
#include "switchmod/fabric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "conference/subnetwork.hpp"
#include "switchmod/fabric_state.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace confnet::sw {
namespace {

using conf::all_pairs_links;
using min::Kind;

GroupRealization make_group(u32 id, Kind kind, u32 n,
                            std::vector<u32> members) {
  GroupRealization g;
  g.id = id;
  std::sort(members.begin(), members.end());
  g.links = all_pairs_links(kind, n, members);
  g.members = std::move(members);
  return g;
}

TEST(Fabric, SingleConferenceDeliversFullMix) {
  for (Kind kind : min::kAllKinds) {
    const u32 n = 4;
    const min::Network net(kind, n);
    const Fabric fabric(net, FabricConfig{1, true, true});
    const auto g = make_group(0, kind, n, {1, 5, 9, 14});
    const EvalReport report = fabric.evaluate({g});
    ASSERT_TRUE(report.ok()) << min::kind_name(kind);
    ASSERT_EQ(report.delivered.size(), 1u);
    for (const MemberSet& d : report.delivered[0])
      EXPECT_EQ(d.values(), g.members) << min::kind_name(kind);
  }
}

TEST(Fabric, WholeNetworkConference) {
  const u32 n = 3;
  const min::Network net(Kind::kOmega, n);
  const Fabric fabric(net, FabricConfig{1, true, true});
  std::vector<u32> everyone(8);
  for (u32 i = 0; i < 8; ++i) everyone[i] = i;
  const auto g = make_group(0, Kind::kOmega, n, everyone);
  const EvalReport report = fabric.evaluate({g});
  ASSERT_TRUE(report.ok());
  for (const MemberSet& d : report.delivered[0])
    EXPECT_EQ(d.size(), 8u);
  // A full broadcast conference exercises both capabilities heavily.
  EXPECT_GT(report.fan_in_ops, 0u);
  EXPECT_GT(report.fan_out_ops, 0u);
}

TEST(Fabric, TwoMemberConferenceUsesNoFanInBeforeMerge) {
  const u32 n = 3;
  const min::Network net(Kind::kIndirectCube, n);
  const Fabric fabric(net, FabricConfig{1, true, true});
  // Adjacent members in the cube merge at stage 1 and share all later rows.
  const auto g = make_group(0, Kind::kIndirectCube, n, {0, 1});
  const EvalReport report = fabric.evaluate({g});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.delivered[0][0].values(), (std::vector<u32>{0, 1}));
  EXPECT_EQ(report.delivered[0][1].values(), (std::vector<u32>{0, 1}));
}

TEST(Fabric, DetectsChannelOverflow) {
  // Two conferences built to collide on a middle link with one channel.
  const u32 n = 4;
  const min::Network net(Kind::kOmega, n);
  const Fabric fabric(net, FabricConfig{1, true, true});
  // Members chosen so both conferences cross level 2 link windows: pairs
  // (a, b) with equal low-2 bits of a and equal high-2 bits of b.
  const auto g1 = make_group(0, Kind::kOmega, n, {0b0001, 0b0100});
  const auto g2 = make_group(1, Kind::kOmega, n, {0b1101, 0b0111});
  // (may or may not overflow depending on exact windows; assert consistency
  // between max load and overflow list instead of a specific link)
  const EvalReport report = fabric.evaluate({g1, g2});
  u32 max_load = 0;
  for (u32 v : report.max_link_load) max_load = std::max(max_load, v);
  EXPECT_EQ(report.overflows.empty(), max_load <= 1);
}

TEST(Fabric, OverflowReportedButSignalsStillPropagate) {
  const u32 n = 2;
  const min::Network net(Kind::kBaseline, n);
  const Fabric fabric(net, FabricConfig{1, true, true});
  // In a 4-port baseline, {0,1} and {2,3} collide at level 1 (block x
  // block windows): verified by the aligned-adversary theory.
  const auto g1 = make_group(0, Kind::kBaseline, n, {0, 1});
  const auto g2 = make_group(1, Kind::kBaseline, n, {2, 3});
  const EvalReport report = fabric.evaluate({g1, g2});
  // Delivery still computed for both groups.
  EXPECT_EQ(report.delivered[0][0].values(), (std::vector<u32>{0, 1}));
  EXPECT_EQ(report.delivered[1][0].values(), (std::vector<u32>{2, 3}));
  // With 2 channels the same groups are feasible.
  const Fabric fabric2(net, FabricConfig{2, true, true});
  EXPECT_TRUE(fabric2.evaluate({g1, g2}).ok());
}

TEST(Fabric, DisjointnessEnforced) {
  const u32 n = 3;
  const min::Network net(Kind::kOmega, n);
  const Fabric fabric(net, FabricConfig{1, true, true});
  const auto g1 = make_group(0, Kind::kOmega, n, {0, 1});
  const auto g2 = make_group(1, Kind::kOmega, n, {1, 2});
  EXPECT_THROW((void)fabric.evaluate({g1, g2}), Error);
}

TEST(Fabric, CapabilityViolationsCounted) {
  const u32 n = 3;
  const min::Network net(Kind::kOmega, n);
  // A conference needs fan-in and fan-out; a fabric without them must
  // report violations.
  const Fabric crippled(net, FabricConfig{1, false, false});
  const auto g = make_group(0, Kind::kOmega, n, {0, 3, 5});
  const EvalReport report = crippled.evaluate({g});
  EXPECT_GT(report.capability_violations, 0u);
  EXPECT_FALSE(report.ok());
}

TEST(Fabric, MuxRelayTapsDeliverAtInternalLevel) {
  const u32 n = 4;
  const min::Network net(Kind::kIndirectCube, n);
  const Fabric fabric(net, FabricConfig{1, true, true});
  // Aligned block {4,5,6,7}: completes combining at level 2.
  const std::vector<u32> members{4, 5, 6, 7};
  const auto real = conf::enhanced_cube_realization(n, members);
  EXPECT_EQ(real.tap_level, 2u);
  GroupRealization g;
  g.id = 0;
  g.members = members;
  g.links = real.links;
  for (u32 m : members)
    g.taps.push_back(GroupRealization::Tap{m, real.tap_level});
  const EvalReport report = fabric.evaluate({g});
  ASSERT_TRUE(report.ok());
  for (const MemberSet& d : report.delivered[0]) EXPECT_EQ(d.values(), members);
}

TEST(Fabric, ManyDisjointEnhancedConferencesAreConflictFree) {
  const u32 n = 4;
  const min::Network net(Kind::kIndirectCube, n);
  const Fabric fabric(net, FabricConfig{1, true, true});
  std::vector<GroupRealization> groups;
  // Four aligned 4-port blocks fill the network.
  for (u32 b = 0; b < 4; ++b) {
    std::vector<u32> members{4 * b, 4 * b + 1, 4 * b + 2, 4 * b + 3};
    const auto real = conf::enhanced_cube_realization(n, members);
    GroupRealization g;
    g.id = b;
    g.members = members;
    g.links = real.links;
    for (u32 m : members)
      g.taps.push_back(GroupRealization::Tap{m, real.tap_level});
    groups.push_back(std::move(g));
  }
  const EvalReport report = fabric.evaluate(groups);
  ASSERT_TRUE(report.ok());
  for (u32 gi = 0; gi < 4; ++gi)
    for (const MemberSet& d : report.delivered[gi])
      EXPECT_EQ(d.values(), groups[gi].members);
}

TEST(Fabric, RejectsMalformedGroups) {
  const u32 n = 2;
  const min::Network net(Kind::kOmega, n);
  const Fabric fabric(net, FabricConfig{1, true, true});
  GroupRealization g;
  g.id = 0;
  g.members = {0, 1};
  g.links.resize(1);  // wrong number of levels
  EXPECT_THROW((void)fabric.evaluate({g}), Error);
}

TEST(Fabric, ConfigValidation) {
  const min::Network net(Kind::kOmega, 2);
  EXPECT_THROW(Fabric(net, FabricConfig{0, true, true}), Error);
}

/// Every link's load and every level's peak, recounted from the admitted
/// groups, must match what FabricState keeps incrementally.
void expect_loads_match_recount(const FabricState& state, u32 n) {
  const u32 N = u32{1} << n;
  std::vector<std::vector<u32>> load(n + 1, std::vector<u32>(N, 0));
  state.for_each_group([&](const GroupRealization& g) {
    for (u32 level = 0; level <= n; ++level)
      for (u32 row : g.links[level]) ++load[level][row];
  });
  u32 overflowing = 0;
  for (u32 level = 0; level <= n; ++level) {
    for (u32 row = 0; row < N; ++row) {
      ASSERT_EQ(state.load_at(level, row), load[level][row])
          << "n=" << n << " link (" << level << "," << row << ")";
      if (load[level][row] > state.capacity()[level]) ++overflowing;
    }
    ASSERT_EQ(state.level_peak_load(level),
              *std::max_element(load[level].begin(), load[level].end()))
        << "n=" << n << " level " << level;
  }
  ASSERT_EQ(state.overflowing_links(), overflowing) << "n=" << n;
}

TEST(FabricState, LoadMatrixMatchesGroupRecountUnderChurn) {
  // Seeded install / grow / shrink / remove churn at every size from N = 2
  // up; the unconditional replace may overflow a link, which the overflow
  // counter must see too.
  u32 steps_overflowing = 0;
  for (u32 n = 1; n <= 10; ++n) {
    const u32 N = u32{1} << n;
    const Kind kind = min::kAllKinds[n % min::kAllKinds.size()];
    const min::Network net(kind, n);
    util::Rng rng(1000 + n);
    std::vector<u32> capacity(n + 1);
    for (u32& c : capacity) c = 1 + static_cast<u32>(rng.below(3));
    FabricState state(net, capacity);

    const auto free_ports = [&] {
      std::vector<u32> ports;
      for (u32 p = 0; p < N; ++p)
        if (state.port_free(p)) ports.push_back(p);
      return ports;
    };
    std::vector<u32> live;
    std::size_t most_live = 0;
    u32 next_id = 0;
    for (int step = 0; step < 300; ++step) {
      const std::vector<u32> ports = free_ports();
      const min::u64 op = live.empty() ? 0 : rng.below(4);
      if (op == 0 && ports.size() >= 2) {
        const u32 k = 2 + static_cast<u32>(rng.below(
                              std::min<std::size_t>(ports.size(), 5) - 1));
        std::vector<u32> members;
        for (u32 i : rng.sample_distinct(static_cast<u32>(ports.size()), k))
          members.push_back(ports[i]);
        if (state.try_add(make_group(next_id, kind, n, members)))
          live.push_back(next_id);
        ++next_id;
      } else if (op == 1 && !live.empty()) {
        const std::size_t at = rng.below(live.size());
        state.remove(live[at]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
      } else if (op == 2 && !live.empty() && !ports.empty()) {
        const u32 id = live[rng.below(live.size())];
        std::vector<u32> members = state.group(id).members;
        members.push_back(ports[rng.below(ports.size())]);
        (void)state.try_replace(id, make_group(id, kind, n, members));
      } else if (op == 3 && !live.empty()) {
        const u32 id = live[rng.below(live.size())];
        std::vector<u32> members = state.group(id).members;
        if (members.size() > 2)
          members.erase(members.begin() +
                        static_cast<std::ptrdiff_t>(rng.below(members.size())));
        else if (!ports.empty())
          members[rng.below(2)] = ports[rng.below(ports.size())];
        state.replace(id, make_group(id, kind, n, members));
      }
      expect_loads_match_recount(state, n);
      if (HasFatalFailure()) return;
      if (state.overflowing_links() > 0) ++steps_overflowing;
      most_live = std::max(most_live, live.size());
    }
    EXPECT_GT(most_live, n > 2 ? 1u : 0u) << "n=" << n;
  }
  EXPECT_GT(steps_overflowing, 0u) << "the churn never overflowed a link";
}

}  // namespace
}  // namespace confnet::sw
