// Functional fabric tests: signal propagation with fan-in/fan-out, channel
// overflow detection, mux relay taps, one table of malformed realizations
// that Fabric::evaluate must refuse and the malformed member lists every
// FabricState mutation must refuse, FabricState's relay taps, its
// incremental load matrix against a recount of its admitted groups, and
// its busy-port set against group membership.
#include "switchmod/fabric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <string_view>
#include <utility>
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
  g.tap_level = real.tap_level;
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
    g.tap_level = real.tap_level;
    groups.push_back(std::move(g));
  }
  const EvalReport report = fabric.evaluate(groups);
  ASSERT_TRUE(report.ok());
  for (u32 gi = 0; gi < 4; ++gi)
    for (const MemberSet& d : report.delivered[gi])
      EXPECT_EQ(d.values(), groups[gi].members);
}

using Rows = std::vector<std::vector<u32>>;

/// Rewrite `g`'s link rows through their nested form.
template <typename Fn>
void edit_rows(GroupRealization& g, Fn&& fn) {
  auto rows = g.links.nested();
  fn(rows);
  g.links = min::LevelLinks(rows);
}

/// Rewrite `g`'s raw flat words (offsets, then rows), unchecked.
template <typename Fn>
void edit_words(GroupRealization& g, Fn&& fn) {
  std::vector<u32> words = g.links.words();
  fn(words);
  g.links = min::LevelLinks::from_words(std::move(words));
}

/// One malformed realization: `make` turns a well-formed group with the
/// given id on members {4, 5} of an n = 3 network into the broken one.
struct MalformedCase {
  std::string_view what;
  void (*make)(GroupRealization& g, u32 n);
};

/// Every well-formedness contract validate_realization enforces, one entry
/// per way to break it.
constexpr MalformedCase kMalformed[] = {
    {"wrong level count",
     [](GroupRealization& g, u32) {
       edit_rows(g, [](Rows& r) { r.pop_back(); });
     }},
    {"n levels in well-formed offsets",
     [](GroupRealization& g, u32 n) {
       edit_words(g, [n](std::vector<u32>& w) {
         // Drop level n's rows and the end offset; the rows now start
         // one word earlier.
         w.resize(w[n]);
         w.erase(w.begin() + n + 1);
         for (u32 l = 0; l <= n; ++l) --w[l];
       });
     }},
    {"non-monotone offsets",
     [](GroupRealization& g, u32) {
       edit_words(g, [](std::vector<u32>& w) { w[1] = w[2] + 1; });
     }},
    {"offsets miss the last row",
     [](GroupRealization& g, u32) {
       edit_words(g, [](std::vector<u32>& w) { w.push_back(w.back()); });
     }},
    {"first offset zero",
     [](GroupRealization& g, u32) {
       edit_words(g, [](std::vector<u32>& w) { w[0] = 0; });
     }},
    {"empty members", [](GroupRealization& g, u32) { g.members.clear(); }},
    {"unsorted members", [](GroupRealization& g, u32) { g.members = {5, 4}; }},
    {"repeated member", [](GroupRealization& g, u32) { g.members = {4, 4}; }},
    {"member out of range",
     [](GroupRealization& g, u32 n) { g.members = {4, u32{1} << n}; }},
    {"unsorted link rows",
     [](GroupRealization& g, u32) {
       edit_rows(g, [](Rows& r) { std::swap(r[0][0], r[0][1]); });
     }},
    {"unsorted rows inside one interstage level",
     [](GroupRealization& g, u32 n) {
       edit_rows(g, [n](Rows& r) {
         for (u32 l = 1; l < n; ++l)
           if (r[l].size() >= 2) std::swap(r[l].front(), r[l].back());
       });
     }},
    {"repeated link row",
     [](GroupRealization& g, u32) {
       edit_rows(g, [](Rows& r) { r[0].push_back(r[0].back()); });
     }},
    {"link row out of range",
     [](GroupRealization& g, u32 n) {
       edit_rows(g, [n](Rows& r) { r[n].push_back(u32{1} << n); });
     }},
    {"tap level above n",
     [](GroupRealization& g, u32 n) { g.tap_level = n + 5; }},
    {"tap link not owned",
     [](GroupRealization& g, u32 n) {
       edit_rows(g, [n](Rows& r) {
         r[n].erase(std::find(r[n].begin(), r[n].end(), 5));
       });
       g.tap_level = n;
     }},
};

TEST(Fabric, RejectsMalformedGroups) {
  constexpr u32 n = 3;
  const Kind kind = Kind::kOmega;
  const min::Network net(kind, n);
  const Fabric fabric(net, FabricConfig{u32{1} << n, true, true});
  for (const MalformedCase& bad : kMalformed) {
    SCOPED_TRACE(bad.what);
    GroupRealization fresh = make_group(1, kind, n, {4, 5});
    bad.make(fresh, n);
    EXPECT_THROW((void)fabric.evaluate({fresh}), Error);
  }
}

/// Add `id` on `members`; true iff admitted.
bool add(FabricState& state, u32 id, std::vector<u32> members) {
  std::sort(members.begin(), members.end());
  return state.try_add(id, members) == Admission::kAdmitted;
}

TEST(FabricState, RejectsMalformedMemberLists) {
  constexpr u32 n = 3;
  constexpr u32 N = u32{1} << n;
  const Kind kind = Kind::kOmega;
  FabricState state(min::Network(kind, n), std::vector<u32>(n + 1, N));
  ASSERT_TRUE(add(state, 0, {0, 1}));

  std::vector<u32> loads;
  std::vector<bool> free_ports;
  const auto snapshot = [&] {
    loads.clear();
    free_ports.clear();
    for (u32 level = 0; level <= n; ++level)
      for (u32 row = 0; row < N; ++row)
        loads.push_back(state.load_at(level, row));
    for (u32 p = 0; p < N; ++p) free_ports.push_back(state.port_free(p));
  };
  snapshot();
  const std::vector<u32> loads_before = loads;
  const std::vector<bool> free_before = free_ports;

  const std::vector<std::vector<u32>> malformed{{}, {5, 4}, {4, 4}, {4, N}};
  for (const std::vector<u32>& members : malformed) {
    SCOPED_TRACE(::testing::PrintToString(members));
    // A refusal that slips through leaves `state` holding a malformed
    // group, so stop at the first one.
    ASSERT_THROW((void)state.try_add(1, members), Error);
    ASSERT_THROW((void)state.try_replace(0, members), Error);
    ASSERT_THROW(state.replace(0, members), Error);

    snapshot();
    EXPECT_EQ(loads, loads_before);
    EXPECT_EQ(free_ports, free_before);
    EXPECT_EQ(state.group_count(), 1u);
    EXPECT_FALSE(state.contains(1));
    EXPECT_EQ(state.members(0), (std::vector<u32>{0, 1}));
  }
  // Only the indirect cube has a relay tap.
  EXPECT_THROW(FabricState(min::Network(kind, n), std::vector<u32>(n + 1, N),
                           true),
               Error);
}

TEST(FabricState, RelayTapsAtTheCubeCompletionLevel) {
  constexpr u32 n = 4;
  FabricState state(min::Network(Kind::kIndirectCube, n),
                    std::vector<u32>(n + 1, 1), true);
  const std::vector<u32> members{4, 5, 6, 7};
  ASSERT_EQ(state.try_add(0, members), Admission::kAdmitted);
  EXPECT_EQ(state.tap_level(0), 2u);
  const GroupRealization g = state.realization(0);
  const auto real = conf::enhanced_cube_realization(n, members);
  EXPECT_EQ(g.links, real.links);
  EXPECT_TRUE(state.delivery_ok());
  const Fabric oracle(state.network(), FabricConfig{1, true, true});
  for (const MemberSet& heard : oracle.propagate(g, &state.faults()).delivered)
    EXPECT_EQ(heard.values(), members);

  // Growing past the block raises the tap; shrinking lowers it again.
  ASSERT_EQ(state.try_replace(0, std::vector<u32>{4, 5, 6, 7, 8}),
            Admission::kAdmitted);
  EXPECT_EQ(state.tap_level(0), 4u);
  state.replace(0, std::vector<u32>{4, 5});
  EXPECT_EQ(state.tap_level(0), 1u);
  EXPECT_EQ(state.realization(0).links,
            conf::enhanced_cube_realization(n, {4, 5}).links);
  EXPECT_NO_THROW(state.cross_check());
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
  state.for_each_group([&](u32 id) {
    const GroupRealization g = state.realization(id);
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
        if (add(state, next_id, members)) live.push_back(next_id);
        ++next_id;
      } else if (op == 1 && !live.empty()) {
        const std::size_t at = rng.below(live.size());
        state.remove(live[at]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
      } else if (op == 2 && !live.empty() && !ports.empty()) {
        const u32 id = live[rng.below(live.size())];
        std::vector<u32> members = state.members(id);
        members.push_back(ports[rng.below(ports.size())]);
        std::sort(members.begin(), members.end());
        (void)state.try_replace(id, members);
      } else if (op == 3 && !live.empty()) {
        const u32 id = live[rng.below(live.size())];
        std::vector<u32> members = state.members(id);
        if (members.size() > 2)
          members.erase(members.begin() +
                        static_cast<std::ptrdiff_t>(rng.below(members.size())));
        else if (!ports.empty())
          members[rng.below(2)] = ports[rng.below(ports.size())];
        std::sort(members.begin(), members.end());
        state.replace(id, members);
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

/// True iff `a` and `b` occupy a common link.
bool share_a_link(const GroupRealization& a, const GroupRealization& b) {
  for (u32 level = 0; level < a.links.levels(); ++level) {
    std::vector<u32> common;
    std::set_intersection(a.links[level].begin(), a.links[level].end(),
                          b.links[level].begin(), b.links[level].end(),
                          std::back_inserter(common));
    if (!common.empty()) return true;
  }
  return false;
}

void expect_busy_matches_membership(const FabricState& state,
                                    std::string_view step) {
  std::vector<bool> member(state.network().size(), false);
  state.for_each_group([&](u32 id) {
    for (u32 m : state.members(id)) member[m] = true;
  });
  for (u32 p = 0; p < member.size(); ++p)
    EXPECT_EQ(state.port_free(p), !member[p]) << step << ": port " << p;
}

TEST(FabricState, BusyPortsTrackMembership) {
  // Unit capacity, so refusals are easy to provoke.
  constexpr u32 n = 4;
  constexpr u32 N = u32{1} << n;
  const Kind kind = Kind::kOmega;
  FabricState state(min::Network(kind, n), std::vector<u32>(n + 1, 1));
  const auto free_ports = [&] {
    std::vector<u32> ports;
    for (u32 p = 0; p < N; ++p)
      if (state.port_free(p)) ports.push_back(p);
    return ports;
  };
  const auto with = [](std::vector<u32> members, u32 port) {
    members.push_back(port);
    return members;
  };

  const GroupRealization a = make_group(0, kind, n, {0, 5});
  ASSERT_TRUE(add(state, 0, a.members));
  expect_busy_matches_membership(state, "try_add");

  // A free pair whose subnetwork crosses a's is refused for capacity.
  std::optional<GroupRealization> clash;
  for (u32 p : free_ports())
    for (u32 q : free_ports())
      if (p < q && !clash && share_a_link(make_group(1, kind, n, {p, q}), a))
        clash = make_group(1, kind, n, {p, q});
  ASSERT_TRUE(clash.has_value());
  EXPECT_EQ(state.try_add(1, clash->members), Admission::kLinkCapacity);
  expect_busy_matches_membership(state, "refused try_add");

  // Growing the only group always fits.
  const GroupRealization a3 =
      make_group(0, kind, n, with(a.members, free_ports().front()));
  ASSERT_EQ(state.try_replace(0, a3.members), Admission::kAdmitted);
  expect_busy_matches_membership(state, "try_replace");

  // A second group that fits, then a growth of it that crosses a3.
  std::optional<GroupRealization> c;
  for (u32 p : free_ports())
    for (u32 q : free_ports())
      if (p < q && !c && !share_a_link(make_group(1, kind, n, {p, q}), a3))
        c = make_group(1, kind, n, {p, q});
  ASSERT_TRUE(c.has_value());
  ASSERT_TRUE(add(state, 1, c->members));
  std::optional<GroupRealization> c_grown;
  for (u32 r : free_ports()) {
    const GroupRealization g = make_group(1, kind, n, with(c->members, r));
    if (!c_grown && share_a_link(g, a3)) c_grown = g;
  }
  ASSERT_TRUE(c_grown.has_value());
  EXPECT_EQ(state.try_replace(1, c_grown->members), Admission::kLinkCapacity);
  expect_busy_matches_membership(state, "refused try_replace");

  // A replace onto another group's port throws and leaves both intact.
  EXPECT_THROW(
      state.replace(1, make_group(1, kind, n, with(c->members, a.members[0]))
                           .members),
      Error);
  expect_busy_matches_membership(state, "refused replace");
  EXPECT_EQ(state.members(1), c->members);

  // Unconditional swaps: shrink a3, move one of c's members.
  state.replace(0, a.members);
  std::vector<u32> moved = c->members;
  moved[0] = free_ports().back();
  std::sort(moved.begin(), moved.end());
  state.replace(1, moved);
  expect_busy_matches_membership(state, "replace");

  state.remove(0);
  expect_busy_matches_membership(state, "remove");
  state.remove(1);
  EXPECT_EQ(free_ports().size(), N);
}

}  // namespace
}  // namespace confnet::sw
