// Derived link rows: FabricState stores a group's member list and derives
// its rows on demand through min::path_union. These suites pin the
// derivation against the WindowTable BFS oracle (all_pairs_links_generic)
// for all six kinds at n = 1..6 — every member set at n <= 4, seeded ones
// above — at every tap truncation, on seeded sets at n = 7..10 (part
// fields wider than six bits), through the fabric's own realization(),
// and pin fail_link's window-test victims against a brute-force scan of
// the materialized rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "conference/subnetwork.hpp"
#include "min/selfroute.hpp"
#include "min/windows.hpp"
#include "switchmod/fabric_state.hpp"
#include "util/rng.hpp"

namespace confnet {
namespace {

using conf::u32;
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
std::vector<u32> admit_disjoint(sw::FabricState& state, bool relay,
                                util::Rng& rng) {
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
    EXPECT_EQ(state.try_add(id, members, relay), sw::Admission::kAdmitted);
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
        sw::FabricState state(net, sw::FabricConfig{N, true, true});
        for (u32 id : admit_disjoint(state, relay, rng)) {
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
                              sw::FabricConfig{N, true, true});
        const std::vector<u32> ids = admit_disjoint(state, relay, rng);
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

}  // namespace
}  // namespace confnet
