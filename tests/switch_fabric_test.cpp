// Functional fabric tests: signal propagation with fan-in/fan-out, channel
// overflow detection, mux relay taps, one table of malformed realizations
// that Fabric::evaluate and every FabricState mutation must refuse,
// FabricState's incremental load matrix against a recount of its admitted
// groups, its 16-bit load guard, and its busy-port set against group
// membership.
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
  constexpr u32 N = u32{1} << n;
  const Kind kind = Kind::kOmega;
  const min::Network net(kind, n);
  const Fabric fabric(net, FabricConfig{N, true, true});
  FabricState state(net, FabricConfig{N, true, true});
  ASSERT_TRUE(state.try_add(make_group(0, kind, n, {0, 1})));

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

  for (const MalformedCase& bad : kMalformed) {
    SCOPED_TRACE(bad.what);
    GroupRealization fresh = make_group(1, kind, n, {4, 5});
    bad.make(fresh, n);
    GroupRealization swap = make_group(0, kind, n, {4, 5});
    bad.make(swap, n);

    // A refusal that slips through leaves `state` holding a malformed
    // group, so stop at the first one.
    ASSERT_THROW((void)state.try_add(fresh), Error);
    ASSERT_THROW((void)state.try_replace(0, swap), Error);
    ASSERT_THROW(state.replace(0, swap), Error);
    EXPECT_THROW((void)fabric.evaluate({fresh}), Error);

    snapshot();
    EXPECT_EQ(loads, loads_before);
    EXPECT_EQ(free_ports, free_before);
    EXPECT_EQ(state.group_count(), 1u);
    EXPECT_FALSE(state.contains(1));
    EXPECT_EQ(state.group(0).members, (std::vector<u32>{0, 1}));
  }
}

TEST(FabricState, AdmissionChecksRelayTaps) {
  constexpr u32 n = 2;
  const Kind kind = Kind::kOmega;
  FabricState state(min::Network(kind, n), FabricConfig{4, true, true});

  // A tap past level n does not exist.
  GroupRealization deep = make_group(0, kind, n, {0, 1});
  deep.tap_level = n + 5;
  EXPECT_THROW((void)state.try_add(deep), Error);

  EXPECT_EQ(state.group_count(), 0u);
  EXPECT_TRUE(state.port_free(0));
  EXPECT_TRUE(state.port_free(1));

  // Taps at level n on the members' own rows are the untapped delivery.
  GroupRealization good = make_group(0, kind, n, {0, 1});
  good.tap_level = n;
  ASSERT_TRUE(state.try_add(good));
  EXPECT_TRUE(state.delivery_ok());
  const Fabric oracle(state.network(), FabricConfig{4, true, true});
  for (const MemberSet& heard :
       oracle.propagate(state.group(0), &state.faults()).delivered)
    EXPECT_EQ(heard.values(), (std::vector<u32>{0, 1}));
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

/// A synthetic one-member group: the member's own level-0 and level-n rows,
/// plus link (level, row) when `shared`.
GroupRealization single_member_group(u32 id, u32 n, u32 member, u32 level,
                                     u32 row, bool shared) {
  GroupRealization g;
  g.id = id;
  g.members = {member};
  Rows rows(n + 1);
  rows[0] = {member};
  rows[n] = {member};
  if (shared) rows[level] = {row};
  g.links = min::LevelLinks(rows);
  return g;
}

/// Runs `mutation`, which must be refused by the 16-bit load guard.
template <typename Fn>
void expect_guard_refusal(Fn&& mutation) {
  try {
    mutation();
    ADD_FAILURE() << "mutation took a link load past the 16-bit ceiling";
  } catch (const Error& e) {
    EXPECT_NE(std::string_view(e.what()).find("16-bit"),
              std::string_view::npos)
        << e.what();
  }
}

TEST(FabricState, SixteenBitLoadGuardRefusesBeforeAnyChange) {
#if defined(CONFNET_AUDIT)
  // The armed periodic cross-check is O(groups) every 32 mutations, so the
  // 65535 admissions below would cost ~10^8 group re-checks.
  GTEST_SKIP() << "too slow with the periodic CONFNET_AUDIT cross-check";
#endif
  // Capacity does not stop the shared link (2^16 channels), so only the
  // guard stands between its load and a wrap to zero.
  constexpr u32 n = 16;
  constexpr u32 level = 8;
  constexpr u32 row = 0;
  constexpr u32 ceiling = FabricState::kMaxLoad;
  std::vector<u32> capacity(n + 1, 1);
  capacity[level] = ceiling + 1;
  FabricState state(min::Network(Kind::kOmega, n), capacity);
  // Ports 1..65535 each hold a group on the shared link; port 0 is free.
  for (u32 port = 1; port <= ceiling; ++port)
    ASSERT_TRUE(state.try_add(
        single_member_group(port, n, port, level, row, true)));
  ASSERT_EQ(state.load_at(level, row), ceiling);
  ASSERT_TRUE(state.port_free(0));

  expect_guard_refusal([&] {
    (void)state.try_add(single_member_group(0, n, 0, level, row, true));
  });
  EXPECT_EQ(state.load_at(level, row), ceiling);
  EXPECT_EQ(state.load_at(0, 0), 0u);
  EXPECT_EQ(state.group_count(), ceiling);
  EXPECT_TRUE(state.port_free(0));
  EXPECT_FALSE(state.contains(0));

  // A group off the shared link may not swap onto it either.
  ASSERT_TRUE(state.try_add(single_member_group(0, n, 0, level, row, false)));
  expect_guard_refusal([&] {
    state.replace(0, single_member_group(0, n, 0, level, row, true));
  });
  expect_guard_refusal([&] {
    (void)state.try_replace(0,
                            single_member_group(0, n, 0, level, row, true));
  });
  EXPECT_EQ(state.load_at(level, row), ceiling);
  EXPECT_EQ(state.group_count(), ceiling + 1);
  EXPECT_FALSE(state.port_free(0));
  EXPECT_TRUE(state.group(0).links[level].empty());
  EXPECT_EQ(state.overflowing_links(), 0u);
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
  state.for_each_group([&](const GroupRealization& g) {
    for (u32 m : g.members) member[m] = true;
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
  ASSERT_TRUE(state.try_add(a));
  expect_busy_matches_membership(state, "try_add");

  // A free pair whose subnetwork crosses a's is refused for capacity.
  std::optional<GroupRealization> clash;
  for (u32 p : free_ports())
    for (u32 q : free_ports())
      if (p < q && !clash && share_a_link(make_group(1, kind, n, {p, q}), a))
        clash = make_group(1, kind, n, {p, q});
  ASSERT_TRUE(clash.has_value());
  EXPECT_FALSE(state.try_add(*clash));
  expect_busy_matches_membership(state, "refused try_add");

  // Growing the only group always fits.
  const GroupRealization a3 =
      make_group(0, kind, n, with(a.members, free_ports().front()));
  ASSERT_TRUE(state.try_replace(0, a3));
  expect_busy_matches_membership(state, "try_replace");

  // A second group that fits, then a growth of it that crosses a3.
  std::optional<GroupRealization> c;
  for (u32 p : free_ports())
    for (u32 q : free_ports())
      if (p < q && !c && !share_a_link(make_group(1, kind, n, {p, q}), a3))
        c = make_group(1, kind, n, {p, q});
  ASSERT_TRUE(c.has_value());
  ASSERT_TRUE(state.try_add(*c));
  std::optional<GroupRealization> c_grown;
  for (u32 r : free_ports()) {
    const GroupRealization g = make_group(1, kind, n, with(c->members, r));
    if (!c_grown && share_a_link(g, a3)) c_grown = g;
  }
  ASSERT_TRUE(c_grown.has_value());
  EXPECT_FALSE(state.try_replace(1, *c_grown));
  expect_busy_matches_membership(state, "refused try_replace");

  // A replace onto another group's port throws and leaves both intact.
  EXPECT_THROW(
      state.replace(1, make_group(1, kind, n, with(c->members, a.members[0]))),
      Error);
  expect_busy_matches_membership(state, "refused replace");
  EXPECT_EQ(state.group(1).members, c->members);

  // Unconditional swaps: shrink a3, move one of c's members.
  state.replace(0, make_group(0, kind, n, a.members));
  std::vector<u32> moved = c->members;
  moved[0] = free_ports().back();
  state.replace(1, make_group(1, kind, n, moved));
  expect_busy_matches_membership(state, "replace");

  state.remove(0);
  expect_busy_matches_membership(state, "remove");
  state.remove(1);
  EXPECT_EQ(free_ports().size(), N);
}

}  // namespace
}  // namespace confnet::sw
