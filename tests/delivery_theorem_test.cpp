// Delivery by theorem: FabricState decides delivery from a per-group
// dead-link count instead of propagating signals. These suites pin that
// closed form against the set-based sweep Fabric::propagate: exhaustively
// on small networks (every kind, every member set, healthy and single-link
// faults, direct and tapped enhanced realizations, with the fan operations
// each healthy group demands counted from its rows), by a seeded churn
// property test at n = 8..10, through the dead-link counter's edge cases,
// and on the Monte-Carlo verification path. A hand-built non-canonical
// realization shows where the theorem stops: Fabric::propagate tells it
// apart, and FabricState, which derives every group's rows from its
// members, cannot hold one.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "analysis/conference/multiplicity.hpp"
#include "conference/placement.hpp"
#include "conference/subnetwork.hpp"
#include "min/network.hpp"
#include "switchmod/fabric_state.hpp"
#include "util/rng.hpp"

namespace confnet {
namespace {

using conf::u32;
using min::Kind;

/// The two canonical realizations the designs admit.
enum class Realization : std::uint8_t { kDirect, kEnhanced };

sw::GroupRealization canonical_group(Realization r, Kind kind, u32 n, u32 id,
                                     std::vector<u32> members) {
  sw::GroupRealization g;
  g.id = id;
  if (r == Realization::kDirect) {
    g.links = conf::all_pairs_links(kind, n, members);
  } else {
    conf::EnhancedRealization er = conf::enhanced_cube_realization(n, members);
    g.links = std::move(er.links);
    g.tap_level = er.tap_level;
  }
  g.members = std::move(members);
  return g;
}

/// A fabric with `channels` on every level that realizes `r`: relayed at
/// the tap level for the enhanced cube.
sw::FabricState fabric_for(Realization r, const min::Network& net,
                           u32 channels) {
  return sw::FabricState(net, std::vector<u32>(net.n() + 1, channels),
                         r == Realization::kEnhanced);
}

/// Admit `members` as group `id`; true iff admitted.
bool admit(sw::FabricState& state, u32 id, const std::vector<u32>& members) {
  return state.try_add(id, members) == sw::Admission::kAdmitted;
}

/// What Fabric::propagate says about one group.
struct OracleVerdict {
  bool exact = true;  // every output hears exactly the member set
  std::uint64_t fan_in_ops = 0;
  std::uint64_t fan_out_ops = 0;
  std::uint64_t capability_violations = 0;
};

/// Fan operations a healthy canonical group demands, counted from its link
/// rows: a used link fed by both of its predecessors (fan-in) or feeding
/// both of its successors (fan-out). Every used link of such a group
/// carries a signal, so these are the operations Fabric::propagate counts.
std::array<std::uint64_t, 2> fan_ops(const min::Network& net,
                                     const min::LevelLinks& rows) {
  const auto owned = [&](u32 level, u32 row) {
    return std::binary_search(rows[level].begin(), rows[level].end(), row);
  };
  std::array<std::uint64_t, 2> ops{0, 0};
  for (u32 level = 0; level <= net.n(); ++level) {
    for (u32 row : rows[level]) {
      if (level > 0) {
        const auto preds = net.stage(level - 1).predecessors(row);
        if (owned(level - 1, preds[0]) && owned(level - 1, preds[1]))
          ++ops[0];
      }
      if (level < net.n()) {
        const auto succs = net.stage(level).successors(row);
        if (owned(level + 1, succs[0]) && owned(level + 1, succs[1]))
          ++ops[1];
      }
    }
  }
  return ops;
}

OracleVerdict oracle_verdict(const sw::Fabric& oracle,
                             const sw::GroupRealization& g,
                             const min::FaultSet& faults) {
  const sw::PropagationResult ref = oracle.propagate(g, &faults);
  OracleVerdict v;
  for (const sw::MemberSet& heard : ref.delivered)
    if (heard.values() != g.members) v.exact = false;
  v.fan_in_ops = ref.fan_in_ops;
  v.fan_out_ops = ref.fan_out_ops;
  v.capability_violations = ref.capability_violations;
  return v;
}

/// Every live group's group_survives() must equal the oracle's exact
/// delivery, delivery_ok() the conjunction of every group's oracle verdict
/// (taken on `oracle`, whose modules have both fan operations), and
/// cross_check() must pass.
void expect_closed_form_matches(const sw::FabricState& state,
                                const sw::Fabric& oracle,
                                const std::vector<u32>& ids) {
  bool all_ok = true;
  for (u32 id : ids) {
    const OracleVerdict v =
        oracle_verdict(oracle, state.realization(id), state.faults());
    EXPECT_EQ(state.group_survives(id), v.exact) << "group " << id;
    all_ok = all_ok && v.exact && v.capability_violations == 0;
  }
  EXPECT_EQ(state.delivery_ok(), all_ok);
  EXPECT_NO_THROW(state.cross_check());
}

// --- Exhaustive: small networks ------------------------------------------

/// Admit each member set alone and compare the closed form with the oracle
/// on the healthy fabric and, when `faults` is set, under every single-link
/// fault of the network. The oracle's modules have neither fan operation,
/// so on the healthy fabric it reports every fan op the group demands as a
/// capability violation, and those counts are pinned against fan_ops().
void sweep_member_sets(Realization r, Kind kind, u32 n,
                       const std::vector<u32>& masks, bool faults) {
  const u32 N = u32{1} << n;
  const min::Network net(kind, n);
  const sw::Fabric oracle(net, sw::FabricConfig{N, false, false});
  sw::FabricState state = fabric_for(r, net, N);

  for (u32 mask : masks) {
    std::vector<u32> members;
    for (u32 p = 0; p < N; ++p)
      if ((mask >> p & 1) != 0) members.push_back(p);
    const sw::GroupRealization g = canonical_group(r, kind, n, 0, members);
    ASSERT_TRUE(admit(state, 0, members));

    const auto check = [&](const OracleVerdict& v, u32 level, u32 row) {
      ASSERT_EQ(state.group_survives(0), v.exact)
          << min::kind_name(kind) << " n=" << n << " mask=" << mask
          << " fault (" << level << "," << row << ")";
      ASSERT_EQ(state.delivery_ok(), v.exact)
          << min::kind_name(kind) << " n=" << n << " mask=" << mask
          << " fault (" << level << "," << row << ")";
    };
    const OracleVerdict healthy = oracle_verdict(oracle, g, state.faults());
    const auto [fan_in, fan_out] = fan_ops(net, state.realization(0).links);
    ASSERT_EQ(healthy.fan_in_ops, fan_in)
        << min::kind_name(kind) << " n=" << n << " mask=" << mask;
    ASSERT_EQ(healthy.fan_out_ops, fan_out)
        << min::kind_name(kind) << " n=" << n << " mask=" << mask;
    ASSERT_EQ(healthy.capability_violations, fan_in + fan_out);
    check(healthy, n + 1, 0);  // healthy: no such level
    if (faults) {
      for (u32 level = 0; level <= n; ++level) {
        for (u32 row = 0; row < N; ++row) {
          (void)state.fail_link(level, row);
          check(oracle_verdict(oracle, g, state.faults()), level, row);
          (void)state.repair_link(level, row);
        }
      }
    }
    state.remove(0);
  }
}

std::vector<u32> every_member_set(u32 n) {
  std::vector<u32> masks;
  for (u32 mask = 1; mask < (u32{1} << (u32{1} << n)); ++mask)
    masks.push_back(mask);
  return masks;
}

template <typename Fn>
void for_each_realization(Fn&& fn) {
  for (Kind kind : min::kAllKinds) fn(Realization::kDirect, kind);
  fn(Realization::kEnhanced, Kind::kIndirectCube);
}

TEST(DeliveryTheorem, ExhaustiveSingleFaultsUpToN3) {
  for (u32 n = 1; n <= 3; ++n) {
    const std::vector<u32> masks = every_member_set(n);
    for_each_realization([&](Realization r, Kind kind) {
      sweep_member_sets(r, kind, n, masks, true);
    });
  }
}

// n = 4: every one of the 2^16 - 1 member sets on the healthy fabric.
TEST(DeliveryTheorem, ExhaustiveHealthyAtN4) {
  const std::vector<u32> masks = every_member_set(4);
  for_each_realization([&](Realization r, Kind kind) {
    sweep_member_sets(r, kind, 4, masks, false);
  });
}

// n = 4 single-link faults: one oracle sweep costs ~10 us here, so every
// one of the 80 faults runs on every pair, every set missing one port,
// the whole network, and a seeded sample of other member sets.
TEST(DeliveryTheorem, SingleFaultsAtN4) {
  constexpr u32 N = 16;
  std::vector<u32> masks;
  for (u32 a = 0; a < N; ++a)
    for (u32 b = a + 1; b < N; ++b)
      masks.push_back((u32{1} << a) | (u32{1} << b));
  const u32 all = (u32{1} << N) - 1;
  for (u32 p = 0; p < N; ++p) masks.push_back(all & ~(u32{1} << p));
  masks.push_back(all);
  util::Rng rng(2021);
  for (int i = 0; i < 128; ++i)
    masks.push_back(1 + static_cast<u32>(rng.below(all)));
  for_each_realization([&](Realization r, Kind kind) {
    sweep_member_sets(r, kind, 4, masks, true);
  });
}

// --- Seeded property test: n = 8..10 under churn -------------------------

class DeliveryTheoremChurn : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  util::Rng rng_{GetParam()};
};

TEST_P(DeliveryTheoremChurn, ClosedFormMatchesOracleUnderChurnAndFaults) {
  for (u32 n = 8; n <= 10; ++n) {
    const u32 N = u32{1} << n;
    const Realization r =
        rng_.below(3) == 0 ? Realization::kEnhanced : Realization::kDirect;
    const Kind kind = r == Realization::kEnhanced
                          ? Kind::kIndirectCube
                          : min::kAllKinds[rng_.below(min::kAllKinds.size())];
    const min::Network net(kind, n);
    sw::FabricState state = fabric_for(r, net, N);
    const sw::Fabric oracle(net, sw::FabricConfig{N, true, true});
    // Buddy placement keeps enhanced groups link-disjoint; the direct
    // fabric has channels to spare either way.
    conf::PortPlacer placer(n, r == Realization::kEnhanced
                                   ? conf::PlacementPolicy::kBuddy
                                   : conf::PlacementPolicy::kRandom);
    SCOPED_TRACE(::testing::Message()
                 << min::kind_name(kind) << " n=" << n
                 << (r == Realization::kEnhanced ? " enhanced" : " direct"));

    std::vector<u32> alive;
    u32 next_id = 0;
    std::size_t most_alive = 0;
    int degraded_steps = 0;
    for (int step = 0; step < 60; ++step) {
      // Admissions weigh triple so the fabric fills between the removals.
      const u32 action = static_cast<u32>(rng_.below(7));
      if (action <= 2 || alive.empty()) {
        const u32 size = 2 + static_cast<u32>(rng_.below(12));
        if (auto ports = placer.place(size, rng_)) {
          if (admit(state, next_id, *ports)) {
            alive.push_back(next_id++);
          } else {
            placer.release(*ports);  // over a dead link or out of room
          }
        }
      } else if (action == 3) {
        const std::size_t at = rng_.below(alive.size());
        placer.release(state.members(alive[at]));
        state.remove(alive[at]);
        alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(at));
      } else if (action == 4) {
        // Shrink by one member through the unconditional replace, degraded
        // or not, as remove_member does.
        const u32 id = alive[rng_.below(alive.size())];
        std::vector<u32> members = state.members(id);
        if (members.size() > 2) {
          const std::size_t at = rng_.below(members.size());
          placer.release_one(members[at]);
          members.erase(members.begin() + static_cast<std::ptrdiff_t>(at));
          state.replace(id, members);
        }
      } else if (action == 5) {
        // Fail a link some group uses, or any link.
        if (rng_.below(3) != 0) {
          const min::LevelLinks links =
              state.realization(alive[rng_.below(alive.size())]).links;
          std::vector<std::array<u32, 2>> used;
          for (u32 level = 0; level <= n; ++level)
            for (u32 row : links[level]) used.push_back({level, row});
          const auto [level, row] = used[rng_.below(used.size())];
          (void)state.fail_link(level, row);
        } else {
          (void)state.fail_link(static_cast<u32>(rng_.below(n + 1)),
                                static_cast<u32>(rng_.below(N)));
        }
      } else {
        // Probe one random row per level and repair the first faulty one;
        // now and then repair every link.
        for (u32 level = 0; level <= n; ++level) {
          const u32 row = static_cast<u32>(rng_.below(N));
          if (state.link_faulty(level, row)) {
            (void)state.repair_link(level, row);
            break;
          }
        }
        if (rng_.below(4) == 0)
          for (u32 level = 0; level <= n; ++level)
            for (u32 row = 0; row < N; ++row)
              if (state.link_faulty(level, row))
                (void)state.repair_link(level, row);
      }
      expect_closed_form_matches(state, oracle, alive);
      if (HasFailure()) return;
      most_alive = std::max(most_alive, alive.size());
      for (u32 id : alive)
        if (!state.group_survives(id)) {
          ++degraded_steps;
          break;
        }
    }
    // The churn must have exercised both verdicts on several groups.
    EXPECT_GE(most_alive, 3u);
    EXPECT_GT(degraded_steps, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeliveryTheoremChurn,
                         ::testing::Values(1u, 2u, 3u, 17u, 1234u));

// --- Dead-link counter edge cases ----------------------------------------

class DeadLinkCounter : public ::testing::TestWithParam<Realization> {};

TEST_P(DeadLinkCounter, FailRepairReplaceAndRemoveKeepTheCount) {
  const Realization r = GetParam();
  const Kind kind = Kind::kIndirectCube;
  constexpr u32 n = 4;
  constexpr u32 N = u32{1} << n;
  const min::Network net(kind, n);
  sw::FabricState state = fabric_for(r, net, N);
  const sw::Fabric oracle(net, sw::FabricConfig{N, true, true});
  // Two aligned blocks, so the enhanced realizations are link-disjoint.
  ASSERT_TRUE(admit(state, 0, {0, 1, 2, 3}));
  ASSERT_TRUE(admit(state, 1, {8, 9, 10}));
  std::vector<u32> ids{0, 1};
  expect_closed_form_matches(state, oracle, ids);

  // Member 3's level-0 link: only group 0 uses it.
  EXPECT_EQ(state.fail_link(0, 3), (std::vector<u32>{0}));
  EXPECT_FALSE(state.group_survives(0));
  EXPECT_TRUE(state.group_survives(1));
  expect_closed_form_matches(state, oracle, ids);

  // Failing the same link again changes nothing: no second count.
  EXPECT_TRUE(state.fail_link(0, 3).empty());
  expect_closed_form_matches(state, oracle, ids);

  // Repairing a healthy link changes nothing either, not even for its
  // users: no underflow.
  EXPECT_TRUE(state.repair_link(0, 8).empty());
  EXPECT_TRUE(state.repair_link(1, 0).empty());
  expect_closed_form_matches(state, oracle, ids);

  // A second dead link on group 0: member 0's injection.
  EXPECT_EQ(state.fail_link(0, 0), (std::vector<u32>{0}));
  expect_closed_form_matches(state, oracle, ids);

  // remove_member on a degraded group (replace): shedding member 3 drops
  // one dead link, the other stays counted.
  state.replace(0, std::vector<u32>{0, 1, 2});
  EXPECT_FALSE(state.group_survives(0));
  expect_closed_form_matches(state, oracle, ids);
  // Shedding member 0 too releases the last dead link.
  state.replace(0, std::vector<u32>{1, 2});
  EXPECT_TRUE(state.group_survives(0));
  EXPECT_TRUE(state.delivery_ok());
  expect_closed_form_matches(state, oracle, ids);

  // Repairing a link the group no longer uses touches nobody.
  EXPECT_TRUE(state.repair_link(0, 3).empty());
  expect_closed_form_matches(state, oracle, ids);

  // Teardown of a degraded group: group 1 loses a link, is removed, and
  // the repair afterwards finds no user to count down.
  const u32 row = state.realization(1).links[0].front();
  EXPECT_EQ(state.fail_link(0, row), (std::vector<u32>{1}));
  EXPECT_FALSE(state.delivery_ok());
  expect_closed_form_matches(state, oracle, ids);
  state.remove(1);
  ids = {0};
  EXPECT_TRUE(state.delivery_ok());
  expect_closed_form_matches(state, oracle, ids);
  EXPECT_TRUE(state.repair_link(0, row).empty());
  EXPECT_TRUE(state.repair_link(0, 0).empty());  // still no user
  expect_closed_form_matches(state, oracle, ids);

  // Readmitting over the repaired links starts from a clean count.
  ASSERT_TRUE(admit(state, 1, {8, 9, 10}));
  ids = {0, 1};
  EXPECT_TRUE(state.delivery_ok());
  expect_closed_form_matches(state, oracle, ids);
}

INSTANTIATE_TEST_SUITE_P(Designs, DeadLinkCounter,
                         ::testing::Values(Realization::kDirect,
                                           Realization::kEnhanced),
                         [](const auto& info) {
                           return info.param == Realization::kDirect
                                      ? "direct"
                                      : "enhanced";
                         });

// --- Where the theorem stops ---------------------------------------------

// A hand-built realization with a dead-end branch: an extra level-1 link
// fed by member 0 that leads to no output. The unique-path argument needs
// every link on a member->output path, so this realization is not
// canonical: once the branch dies, the closed form (exact iff no dead
// link) reports lost delivery while Fabric::propagate still delivers
// exactly. The same members admitted to a FabricState get the derived,
// canonical rows, so failing the branch touches no group there and both
// verdicts agree.
TEST(DeliveryTheorem, NonCanonicalRealizationDivergesInPropagate) {
  constexpr u32 n = 3;
  constexpr u32 N = u32{1} << n;
  const Kind kind = Kind::kOmega;
  const min::Network net(kind, n);
  const sw::Fabric oracle(net, sw::FabricConfig{N, true, true});

  sw::GroupRealization g = canonical_group(Realization::kDirect, kind, n, 0,
                                           {0, 1});
  u32 branch = N;
  for (u32 q : net.successors(0, 0))
    if (!std::binary_search(g.links[1].begin(), g.links[1].end(), q))
      branch = q;
  ASSERT_LT(branch, N) << "member 0 already drives both successors";
  auto rows = g.links.nested();
  rows[1].insert(std::lower_bound(rows[1].begin(), rows[1].end(), branch),
                 branch);
  g.links = min::LevelLinks(rows);
  EXPECT_NO_THROW(sw::validate_realization(net, g));

  // Healthy, the theorem and the oracle still agree.
  min::FaultSet faults(n);
  EXPECT_TRUE(oracle_verdict(oracle, g, faults).exact);

  // Dead branch: one dead link in the realization, yet exact delivery.
  faults.fail_link(1, branch);
  EXPECT_TRUE(oracle_verdict(oracle, g, faults).exact);
  u32 dead = 0;
  for (u32 level = 0; level <= n; ++level)
    for (u32 row : g.links[level]) dead += faults.is_faulty(level, row);
  EXPECT_EQ(dead, 1u) << "the closed form would report lost delivery";

  // The fabric derives the canonical rows for the same members.
  sw::FabricState state = fabric_for(Realization::kDirect, net, N);
  ASSERT_TRUE(admit(state, 0, g.members));
  EXPECT_NE(state.realization(0).links, g.links);
  EXPECT_TRUE(state.fail_link(1, branch).empty());
  EXPECT_TRUE(state.delivery_ok());
  EXPECT_TRUE(oracle_verdict(oracle, state.realization(0), state.faults())
                  .exact);
  EXPECT_NO_THROW(state.cross_check());
}

// --- Monte-Carlo delivery verification -----------------------------------

// The MC trial loop verifies delivery by the closed form; the serial
// reference propagates through the stateless set-based Fabric::evaluate.
// Both must see zero failures on a healthy fabric, and turning
// verification on must not perturb the multiplicity statistics (it
// consumes no RNG).
TEST(DeliveryTheoremMonteCarlo, VerifyDeliveryMatchesReferenceAndKeepsStats) {
  const u32 n = 4;
  const u32 trials = 40;
  for (Kind kind : {Kind::kOmega, Kind::kIndirectCube}) {
    const auto plain = conf::monte_carlo_multiplicity(
        kind, n, 3, 2, 6, conf::PlacementPolicy::kRandom, trials, 99);
    const auto fast = conf::monte_carlo_multiplicity(
        kind, n, 3, 2, 6, conf::PlacementPolicy::kRandom, trials, 99, nullptr,
        true);
    const auto ref = conf::monte_carlo_multiplicity_reference(
        kind, n, 3, 2, 6, conf::PlacementPolicy::kRandom, trials, 99, true);
    EXPECT_EQ(fast.delivery_failures, 0u);
    EXPECT_EQ(ref.delivery_failures, 0u);
    EXPECT_EQ(fast.peak_histogram, plain.peak_histogram);
    EXPECT_EQ(fast.peak_histogram, ref.peak_histogram);
    EXPECT_EQ(fast.max_peak, ref.max_peak);
    EXPECT_EQ(fast.placement_failures, ref.placement_failures);
    EXPECT_EQ(fast.peak.count(), ref.peak.count());
  }
}

}  // namespace
}  // namespace confnet
