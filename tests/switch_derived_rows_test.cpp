// Derived link rows: FabricState stores a group's member list and derives
// its rows on demand through min::path_union. These suites pin the
// derivation against the WindowTable BFS oracle (all_pairs_links_generic)
// for all six kinds at n = 1..6 — every member set at n <= 4, seeded ones
// above — at every tap truncation, on seeded sets at n = 7..10 (part
// fields wider than six bits), through the fabric's own realization(),
// and pin fail_link's window-test victims against a brute-force scan of
// the materialized rows. The R2Mode suites churn fabrics in and out of the
// mode in which they derive nothing, against the same recount.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "conference/subnetwork.hpp"
#include "min/selfroute.hpp"
#include "min/windows.hpp"
#include "switchmod/fabric_state.hpp"
#include "util/rng.hpp"

namespace confnet {
namespace {

using conf::u32;
using conf::u64;
using min::Kind;
using min::LevelLinks;

/// The oracle's rows with every level above `last` emptied.
LevelLinks truncated(const LevelLinks& links, u32 last) {
  auto rows = links.nested();
  for (u32 level = last + 1; level < rows.size(); ++level)
    rows[level].clear();
  return LevelLinks(rows);
}

/// The member sets of one size class: every non-empty set at n <= 4,
/// seeded ones of 1..N ports above.
std::vector<std::vector<u32>> member_sets(u32 n, util::Rng& rng) {
  const u32 N = u32{1} << n;
  std::vector<std::vector<u32>> sets;
  if (n <= 4) {
    for (u32 mask = 1; mask < (u32{1} << N); ++mask) {
      std::vector<u32> members;
      for (u32 p = 0; p < N; ++p)
        if ((mask >> p & 1) != 0) members.push_back(p);
      sets.push_back(std::move(members));
    }
    return sets;
  }
  for (int trial = 0; trial < 200; ++trial) {
    auto members = rng.sample_distinct(
        N, 1 + static_cast<u32>(rng.below(trial < 100 ? 8 : N)));
    std::sort(members.begin(), members.end());
    sets.push_back(std::move(members));
  }
  return sets;
}

TEST(DerivedRows, PathUnionEqualsWindowOracleAtEveryTruncation) {
  util::Rng rng(29);
  LevelLinks rows;  // one reused result and parts scratch, as the fabric
  std::vector<u32> parts;
  for (u32 n = 1; n <= 6; ++n) {
    const std::vector<std::vector<u32>> sets = member_sets(n, rng);
    for (Kind kind : min::kAllKinds) {
      const min::WindowTable wt(min::Network(kind, n));
      for (const std::vector<u32>& members : sets) {
        const LevelLinks oracle = conf::all_pairs_links_generic(wt, members);
        min::path_union(kind, n, members, members, n, rows, parts);
        ASSERT_EQ(rows, oracle) << min::kind_name(kind) << " n=" << n;
        // Truncations are checked on every set at n <= 3 and a sample
        // above: each costs one oracle copy.
        if (n > 3 && members.size() % 7 != 1) continue;
        for (u32 last = 0; last < n; ++last) {
          min::path_union(kind, n, members, members, last, rows, parts);
          ASSERT_EQ(rows, truncated(oracle, last))
              << min::kind_name(kind) << " n=" << n << " last=" << last;
        }
      }
    }
  }
}

// Above six stages a part field can be wider than the 64-bit set, and
// path_union collects and sorts it instead: pin that path too.
TEST(DerivedRows, WideFieldsAboveSixStagesEqualWindowOracle) {
  util::Rng rng(43);
  LevelLinks rows;
  std::vector<u32> parts;
  for (u32 n = 7; n <= 10; ++n) {
    for (Kind kind : min::kAllKinds) {
      const min::WindowTable wt(min::Network(kind, n));
      for (int trial = 0; trial < 40; ++trial) {
        auto members = rng.sample_distinct(
            u32{1} << n, 2 + static_cast<u32>(rng.below(63)));
        std::sort(members.begin(), members.end());
        const LevelLinks oracle = conf::all_pairs_links_generic(wt, members);
        min::path_union(kind, n, members, members, n, rows, parts);
        ASSERT_EQ(rows, oracle) << min::kind_name(kind) << " n=" << n;
        const u32 last = static_cast<u32>(rng.below(n));
        min::path_union(kind, n, members, members, last, rows, parts);
        ASSERT_EQ(rows, truncated(oracle, last))
            << min::kind_name(kind) << " n=" << n << " last=" << last;
      }
    }
  }
}

TEST(DerivedRows, UnsortedEndpointsGiveTheSameRows) {
  util::Rng rng(31);
  constexpr u32 n = 6;
  for (Kind kind : min::kAllKinds) {
    for (int trial = 0; trial < 50; ++trial) {
      const auto sources = rng.sample_distinct(u32{1} << n, 5);
      const auto sinks = rng.sample_distinct(u32{1} << n, 3);
      auto sorted_sources = sources;
      auto sorted_sinks = sinks;
      std::sort(sorted_sources.begin(), sorted_sources.end());
      std::sort(sorted_sinks.begin(), sorted_sinks.end());
      EXPECT_EQ(conf::path_union_links(kind, n, sources, sinks),
                conf::path_union_links(kind, n, sorted_sources, sorted_sinks))
          << min::kind_name(kind);
    }
  }
}

/// Disjoint seeded member sets of 2..6 ports, admitted to `state` as groups
/// 0, 1, ... until the ports run out.
std::vector<u32> admit_disjoint(sw::FabricState& state, util::Rng& rng) {
  const u32 N = state.network().size();
  std::vector<u32> ports = rng.sample_distinct(N, N);
  std::vector<u32> ids;
  for (u32 id = 0; ports.size() >= 2; ++id) {
    const auto take = std::min<std::size_t>(
        ports.size(), 2 + static_cast<std::size_t>(rng.below(5)));
    std::vector<u32> members(ports.end() - static_cast<std::ptrdiff_t>(take),
                             ports.end());
    ports.resize(ports.size() - take);
    std::sort(members.begin(), members.end());
    EXPECT_EQ(state.try_add(id, members), sw::Admission::kAdmitted);
    ids.push_back(id);
  }
  return ids;
}

TEST(DerivedRows, FabricRealizationEqualsWindowOracle) {
  util::Rng rng(37);
  for (u32 n = 1; n <= 6; ++n) {
    const u32 N = u32{1} << n;
    for (Kind kind : min::kAllKinds) {
      for (bool relay : {false, true}) {
        if (relay && kind != Kind::kIndirectCube) continue;
        const min::Network net(kind, n);
        const min::WindowTable wt(net);
        sw::FabricState state(net, std::vector<u32>(n + 1, N), relay);
        for (u32 id : admit_disjoint(state, rng)) {
          const sw::GroupRealization g = state.realization(id);
          const LevelLinks oracle =
              conf::all_pairs_links_generic(wt, g.members);
          const u32 tap = relay ? min::cube_tap_level(g.members)
                                : sw::GroupRealization::kNoTap;
          EXPECT_EQ(g.tap_level, tap);
          EXPECT_EQ(g.links, relay ? truncated(oracle, tap) : oracle)
              << min::kind_name(kind) << " n=" << n << " group " << id;
        }
      }
    }
  }
}

TEST(DerivedRows, FailLinkVictimsEqualBruteForceScan) {
  util::Rng rng(41);
  for (u32 n = 1; n <= 6; ++n) {
    const u32 N = u32{1} << n;
    for (Kind kind : min::kAllKinds) {
      for (bool relay : {false, true}) {
        if (relay && kind != Kind::kIndirectCube) continue;
        sw::FabricState state(min::Network(kind, n),
                              std::vector<u32>(n + 1, N), relay);
        const std::vector<u32> ids = admit_disjoint(state, rng);
        std::vector<sw::GroupRealization> groups;
        for (u32 id : ids) groups.push_back(state.realization(id));
        for (u32 level = 0; level <= n; ++level) {
          for (u32 row = 0; row < N; ++row) {
            std::vector<u32> expected;
            for (const sw::GroupRealization& g : groups)
              if (std::binary_search(g.links[level].begin(),
                                     g.links[level].end(), row))
                expected.push_back(g.id);
            ASSERT_EQ(state.fail_link(level, row), expected)
                << min::kind_name(kind) << " n=" << n << " link (" << level
                << "," << row << ")";
            for (u32 id : expected) EXPECT_FALSE(state.group_survives(id));
            ASSERT_EQ(state.repair_link(level, row), expected);
            EXPECT_TRUE(state.delivery_ok());
          }
        }
      }
    }
  }
}

// --- R2 mode -------------------------------------------------------------
// On a kind with orthogonal windows and with no fault, a fabric whose groups sit on pairwise disjoint aligned blocks
// derives no rows and keeps no load table. The churn below pins every
// verdict and victim list, in and out of that mode, against a recount of
// the materialized realizations.

enum class Policy { kBuddy, kFirstFit, kRandom };

/// A fabric configuration under churn: the kind, and the relay tap
/// (indirect cube only).
struct Geometry {
  Kind kind;
  bool relay;
};

std::vector<Geometry> churn_geometries() {
  std::vector<Geometry> out;
  for (Kind kind : min::kAllKinds) out.push_back({kind, false});
  out.push_back({Kind::kIndirectCube, true});
  return out;
}

/// Link loads recounted from every live group's materialized realization,
/// as nested [level][row].
std::vector<std::vector<u32>> recount(const sw::FabricState& state) {
  const u32 n = state.network().n();
  std::vector<std::vector<u32>> load(n + 1,
                                     std::vector<u32>(state.network().size()));
  state.for_each_group([&](u32 id) {
    const sw::GroupRealization g = state.realization(id);
    for (u32 level = 0; level <= n; ++level)
      for (u32 row : g.links[level]) ++load[level][row];
  });
  return load;
}

/// The verdict a fabric owes a group moving from `old` rows (empty for an
/// add) to `rows`: faulty if any of `rows` is on the fault mask, refused if
/// a link `rows` gains has no free channel, admitted otherwise.
sw::Admission expected_verdict(const sw::FabricState& state,
                               const LevelLinks& rows, const LevelLinks* old,
                               const std::vector<std::vector<u32>>& load) {
  for (u32 level = 0; level < rows.levels(); ++level)
    for (u32 row : rows[level])
      if (state.link_faulty(level, row)) return sw::Admission::kLinkFaulty;
  for (u32 level = 0; level < rows.levels(); ++level) {
    for (u32 row : rows[level]) {
      const bool gained =
          old == nullptr || !std::binary_search((*old)[level].begin(),
                                                (*old)[level].end(), row);
      if (gained && load[level][row] >= state.capacity()[level])
        return sw::Admission::kLinkCapacity;
    }
  }
  return sw::Admission::kAdmitted;
}

/// Ids of live groups whose materialized realization holds (level,row).
std::vector<u32> users_of(const sw::FabricState& state, u32 level, u32 row) {
  std::vector<u32> ids;
  state.for_each_group([&](u32 id) {
    const sw::GroupRealization g = state.realization(id);
    if (std::binary_search(g.links[level].begin(), g.links[level].end(), row))
      ids.push_back(id);
  });
  return ids;
}

/// Seeded churn on one fabric: adds, grows, shrinks (try_replace and
/// replace) and removes under `policy`, with an optional link fault from
/// step 150 to step 250. After every step the fabric cross-checks itself,
/// and every verdict and victim list equals the recount oracle.
void churn(const Geometry& geo, Policy policy, bool fault, u64 seed) {
  constexpr u32 n = 6;
  constexpr u32 N = u32{1} << n;
  const min::Network net(geo.kind, n);
  const min::WindowTable wt(net);
  std::vector<u32> capacity(n + 1, 1);
  for (u32 level = 1; level < n; ++level) capacity[level] = 2;
  sw::FabricState state(net, capacity, geo.relay);
  const bool r2_kind = !min::has_block_block_windows(geo.kind);
  util::Rng rng(seed);

  std::vector<bool> used(N, false);  // member ports
  std::vector<bool> held(N, false);  // buddy blocks
  std::vector<std::pair<u32, u32>> block_of(64, {0, 0});  // id -> block
  std::vector<u32> live;
  u32 next_id = 0;
  std::vector<u32> free_ids;
  std::pair<u32, u32> dead{0, 0};
  const auto rows_for = [&](const std::vector<u32>& members, bool relay) {
    const LevelLinks all = conf::all_pairs_links_generic(wt, members);
    return relay ? truncated(all, min::cube_tap_level(members)) : all;
  };
  const auto free_ports = [&](u32 lo, u32 hi) {
    std::vector<u32> ports;
    for (u32 p = lo; p < hi; ++p)
      if (!used[p]) ports.push_back(p);
    return ports;
  };
  const std::string where = std::string(min::kind_name(geo.kind)) +
                            (geo.relay ? "+relay" : "") + " policy " +
                            std::to_string(static_cast<int>(policy)) +
                            (fault ? " fault" : "");

  for (u32 step = 0; step < 400; ++step) {
    SCOPED_TRACE(where + " step " + std::to_string(step));
    if (fault && step == 150) {
      // Fail an interstage link a live group uses, when there is one.
      const u32 level = 1 + static_cast<u32>(rng.below(n - 1));
      u32 row = static_cast<u32>(rng.below(N));
      if (!live.empty()) {
        const sw::GroupRealization g = state.realization(live.front());
        if (!g.links[level].empty()) row = g.links[level].front();
      }
      dead = {level, row};
      const std::vector<u32> expected = users_of(state, level, row);
      ASSERT_EQ(state.fail_link(level, row), expected);
      EXPECT_FALSE(state.r2_mode());
    }
    if (fault && step == 250) {
      const auto [level, row] = dead;
      const std::vector<u32> expected = users_of(state, level, row);
      ASSERT_EQ(state.repair_link(level, row), expected);
    }
    const std::vector<std::vector<u32>> load = recount(state);
    const u64 op = rng.below(10);
    if (live.size() < 4 || (op < 4 && live.size() < 12)) {
      // Add a group of 2..6 ports.
      const u32 k = 2 + static_cast<u32>(rng.below(5));
      std::vector<u32> members;
      u32 block_first = 0;
      const u32 block_size = std::bit_ceil(k);
      if (policy == Policy::kBuddy) {
        bool found = false;
        for (u32 first = 0; first < N && !found; first += block_size) {
          found = std::none_of(held.begin() + first,
                               held.begin() + first + block_size,
                               [](bool b) { return b; });
          if (found) block_first = first;
        }
        if (!found) continue;
        members = rng.sample_distinct(block_size, k);
        for (u32& m : members) m += block_first;
      } else {
        const std::vector<u32> ports = free_ports(0, N);
        if (ports.size() < k) continue;
        if (policy == Policy::kFirstFit) {
          members.assign(ports.begin(), ports.begin() + k);
        } else {
          for (u32 i : rng.sample_distinct(static_cast<u32>(ports.size()), k))
            members.push_back(ports[i]);
        }
      }
      std::sort(members.begin(), members.end());
      const u32 id = free_ids.empty() ? next_id : free_ids.back();
      const sw::Admission want =
          expected_verdict(state, rows_for(members, geo.relay), nullptr, load);
      ASSERT_EQ(state.try_add(id, members), want);
      if (want == sw::Admission::kAdmitted) {
        if (id == next_id)
          ++next_id;
        else
          free_ids.pop_back();
        live.push_back(id);
        for (u32 m : members) used[m] = true;
        if (policy == Policy::kBuddy) {
          block_of[id] = {block_first, block_size};
          std::fill(held.begin() + block_first,
                    held.begin() + block_first + block_size, true);
        }
      }
    } else if (op < 6) {
      // Grow one group by a free port (inside its block under buddy).
      const u32 id = live[rng.below(live.size())];
      const auto [lo, size] = block_of[id];
      const std::vector<u32> ports = policy == Policy::kBuddy
                                         ? free_ports(lo, lo + size)
                                         : free_ports(0, N);
      if (ports.empty()) continue;
      const u32 port = policy == Policy::kFirstFit
                           ? ports.front()
                           : ports[rng.below(ports.size())];
      std::vector<u32> members = state.members(id);
      members.insert(std::lower_bound(members.begin(), members.end(), port),
                     port);
      const LevelLinks old = state.realization(id).links;
      const sw::Admission want = expected_verdict(
          state, rows_for(members, geo.relay), &old, load);
      ASSERT_EQ(state.try_replace(id, members), want);
      if (want == sw::Admission::kAdmitted) used[port] = true;
    } else if (op < 8) {
      // Shrink one group of three or more by a member, through try_replace
      // or the unconditional replace.
      const u32 id = live[rng.below(live.size())];
      std::vector<u32> members = state.members(id);
      if (members.size() < 3) continue;
      const auto at = members.begin() +
                      static_cast<std::ptrdiff_t>(rng.below(members.size()));
      const u32 port = *at;
      members.erase(at);
      if (rng.below(2) == 0) {
        const LevelLinks old = state.realization(id).links;
        const sw::Admission want = expected_verdict(
            state, rows_for(members, geo.relay), &old, load);
        ASSERT_EQ(state.try_replace(id, members), want);
        if (want == sw::Admission::kAdmitted) used[port] = false;
      } else {
        state.replace(id, members);
        used[port] = false;
      }
    } else {
      // Remove one group.
      const auto at = live.begin() +
                      static_cast<std::ptrdiff_t>(rng.below(live.size()));
      const u32 id = *at;
      for (u32 m : state.members(id)) used[m] = false;
      if (policy == Policy::kBuddy) {
        const auto [lo, size] = block_of[id];
        std::fill(held.begin() + lo, held.begin() + lo + size, false);
      }
      state.remove(id);
      live.erase(at);
      free_ids.push_back(id);
    }
    ASSERT_NO_THROW(state.cross_check());
    ASSERT_EQ(state.group_count(), live.size());
    // Buddy blocks are disjoint, so R2 holds throughout on a healthy
    // orthogonal fabric.
    if (policy == Policy::kBuddy && r2_kind && !(fault && step >= 150)) {
      ASSERT_TRUE(state.r2_mode());
    }
    if (!r2_kind) {
      ASSERT_FALSE(state.r2_mode());
    }
  }
  // Emptied and healthy, an orthogonal fabric is back in R2 mode.
  for (u32 id : live) state.remove(id);
  EXPECT_EQ(state.r2_mode(), r2_kind);
  EXPECT_NO_THROW(state.cross_check());
}

TEST(R2Mode, ChurnVerdictsAndVictimsEqualTheRecount) {
  u64 seed = 101;
  for (const Geometry& geo : churn_geometries())
    for (Policy policy : {Policy::kBuddy, Policy::kFirstFit, Policy::kRandom})
      for (bool fault : {false, true}) churn(geo, policy, fault, seed++);
}

TEST(R2Mode, FaultMaterializesLoadsEqualToTheRecount) {
  constexpr u32 n = 6;
  constexpr u32 N = u32{1} << n;
  for (const Geometry& geo : churn_geometries()) {
    if (min::has_block_block_windows(geo.kind)) continue;
    SCOPED_TRACE(std::string(min::kind_name(geo.kind)));
    sw::FabricState state(min::Network(geo.kind, n),
                          std::vector<u32>(n + 1, 1), geo.relay);
    // Eight groups on the eight aligned blocks of eight ports, each on a
    // varying part of its block.
    for (u32 id = 0; id < N / 8; ++id) {
      const std::vector<u32> members{8 * id + id % 3, 8 * id + 4 + id % 4};
      ASSERT_EQ(state.try_add(id, members), sw::Admission::kAdmitted);
    }
    ASSERT_TRUE(state.r2_mode());
    // In R2 mode the loads are a recount, and asking does not change mode.
    std::vector<std::vector<u32>> load = recount(state);
    for (u32 level = 0; level <= n; ++level) {
      u32 peak = 0;
      for (u32 row = 0; row < N; ++row) {
        ASSERT_EQ(state.load_at(level, row), load[level][row]);
        ASSERT_LE(load[level][row], 1u);
        peak = std::max(peak, load[level][row]);
      }
      ASSERT_EQ(state.level_peak_load(level), peak);
    }
    ASSERT_TRUE(state.r2_mode());

    const sw::GroupRealization g = state.realization(3);
    const u32 row = g.links[2].front();
    ASSERT_EQ(state.fail_link(2, row), users_of(state, 2, row));
    ASSERT_FALSE(state.r2_mode());
    EXPECT_FALSE(state.group_survives(3));
    for (u32 level = 0; level <= n; ++level)
      for (u32 r = 0; r < N; ++r)
        ASSERT_EQ(state.load_at(level, r), load[level][r]);
    EXPECT_NO_THROW(state.cross_check());

    // Repaired, the fabric returns to R2 mode (its blocks are disjoint):
    // the loads are a recount again.
    ASSERT_EQ(state.repair_link(2, row), users_of(state, 2, row));
    EXPECT_TRUE(state.r2_mode());
    for (u32 level = 0; level <= n; ++level)
      for (u32 r = 0; r < N; ++r)
        ASSERT_EQ(state.load_at(level, r), load[level][r]);
    EXPECT_NO_THROW(state.cross_check());
    for (u32 id = 0; id < N / 8; ++id) state.remove(id);
    EXPECT_TRUE(state.r2_mode());
    EXPECT_NO_THROW(state.cross_check());
  }
}

TEST(R2Mode, OverlappingBlockLeavesTheModeAndKeepsVerdicts) {
  // One channel a link on the omega: {0, 1}, {2, 3} and {4, 7} sit on
  // disjoint blocks. {6, 8} has block [0, 16), which meets them all, so
  // its links decide: it is refused exactly when its rows meet a loaded
  // link, and leaves R2 mode only if admitted.
  constexpr u32 n = 4;
  sw::FabricState state(min::Network(Kind::kOmega, n),
                        std::vector<u32>(n + 1, 1));
  ASSERT_EQ(state.try_add(0, std::vector<u32>{0, 1}),
            sw::Admission::kAdmitted);
  ASSERT_EQ(state.try_add(1, std::vector<u32>{2, 3}),
            sw::Admission::kAdmitted);
  ASSERT_EQ(state.try_add(2, std::vector<u32>{4, 7}),
            sw::Admission::kAdmitted);
  ASSERT_TRUE(state.r2_mode());
  const std::vector<u32> straddle{6, 8};
  const min::WindowTable wt(state.network());
  const sw::Admission want =
      expected_verdict(state, conf::all_pairs_links_generic(wt, straddle),
                       nullptr, recount(state));
  ASSERT_EQ(state.try_add(3, straddle), want);
  EXPECT_EQ(state.r2_mode(), want != sw::Admission::kAdmitted);
  EXPECT_NO_THROW(state.cross_check());
  // Admitted, its departure brings every port back within one cover.
  if (want == sw::Admission::kAdmitted) {
    state.remove(3);
    EXPECT_TRUE(state.r2_mode());
    EXPECT_NO_THROW(state.cross_check());
  }
}

}  // namespace
}  // namespace confnet
