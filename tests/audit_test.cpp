// Invariant-auditor tests.
//
// Positive half: every per-subsystem wrapper accepts healthy objects after
// real workloads (so the CONFNET_AUDIT hooks embedded in the library can
// never fire on correct code).
//
// Negative half: for each subsystem, at least one deliberately corrupted
// state fed to the raw checkers makes the audit throw AuditError with that
// subsystem's tag — proving the audits actually detect what they claim to.
#include "util/audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/conference/multiplicity.hpp"
#include "conference/designs.hpp"
#include "conference/placement.hpp"
#include "conference/session.hpp"
#include "conference/subnetwork.hpp"
#include "conference/waitqueue.hpp"
#include "min/network.hpp"
#include "min/windows.hpp"
#include "switchmod/fabric.hpp"
#include "util/rng.hpp"

namespace {

using namespace confnet;
using u32 = std::uint32_t;

template <typename Fn>
std::string audit_failure(Fn&& fn, const std::string& expect_subsystem) {
  try {
    fn();
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.subsystem(), expect_subsystem) << e.what();
    EXPECT_NE(std::string(e.what()).find("audit[" + expect_subsystem + "]"),
              std::string::npos)
        << e.what();
    return e.what();
  }
  ADD_FAILURE() << "corrupted state passed the " << expect_subsystem
                << " audit";
  return {};
}

// ---------------------------------------------------------------- network

TEST(AuditNetwork, HealthyNetworksPass) {
  for (auto kind : {min::Kind::kOmega, min::Kind::kBaseline,
                    min::Kind::kIndirectCube, min::Kind::kButterfly}) {
    const min::Network net(kind, 4);
    EXPECT_NO_THROW(audit::check_network(net));
  }
}

TEST(AuditNetwork, CorruptedWiringFires) {
  // A wiring table with a repeated entry is not a bijection.
  audit_failure([] { audit::check_permutation({0, 0, 2, 3}, "min"); }, "min");
  // An out-of-range entry is equally illegal.
  audit_failure([] { audit::check_permutation({0, 1, 7, 3}, "min"); }, "min");
}

// --------------------------------------------------------------- switchmod

TEST(AuditFabric, HealthyRealizationPasses) {
  const u32 n = 3;
  const min::Network net(min::Kind::kIndirectCube, n);
  sw::GroupRealization group;
  group.id = 0;
  group.members = {0, 1, 2, 3};
  group.links = conf::all_pairs_links(net.kind(), n, group.members);
  EXPECT_NO_THROW(audit::check_group_realization(net, group));
}

TEST(AuditFabric, CorruptedRealizationFires) {
  const u32 n = 3;
  const min::Network net(min::Kind::kIndirectCube, n);
  sw::GroupRealization group;
  group.id = 0;
  group.members = {0, 1, 2, 3};
  group.links = conf::all_pairs_links(net.kind(), n, group.members);

  // Orphan link: a level-2 row whose predecessors carry no group traffic.
  auto orphaned = group;
  auto rows = group.links.nested();
  rows[2] = {7};
  orphaned.links = min::LevelLinks(rows);
  audit_failure(
      [&] { audit::check_group_realization(net, orphaned); }, "switchmod");

  // Unsorted rows break the canonical link-set representation.
  audit_failure([] { audit::check_rows(std::vector<u32>{3, 1}, 8, "switchmod"); },
                "switchmod");
}

// --------------------------------------------------------------- placement

TEST(AuditPlacement, HealthyPlacerPasses) {
  util::Rng rng(7);
  for (auto policy : {conf::PlacementPolicy::kBuddy,
                      conf::PlacementPolicy::kFirstFit,
                      conf::PlacementPolicy::kRandom}) {
    conf::PortPlacer placer(4, policy);
    auto a = placer.place(3, rng);
    auto b = placer.place(5, rng);
    ASSERT_TRUE(a && b);
    EXPECT_NO_THROW(audit::check_placer(placer));
    placer.release(*a);
    EXPECT_NO_THROW(audit::check_placer(placer));
  }
}

// ----------------------------------------------------------------- session

TEST(AuditSession, HealthySessionManagerPasses) {
  conf::EnhancedCubeNetwork net(4);
  conf::SessionManager mgr(net, conf::PlacementPolicy::kBuddy);
  util::Rng rng(11);
  auto [r1, s1] = mgr.open(4, rng);
  auto [r2, s2] = mgr.open(2, rng);
  ASSERT_EQ(r1, conf::OpenResult::kAccepted);
  ASSERT_EQ(r2, conf::OpenResult::kAccepted);
  EXPECT_NO_THROW(audit::check_session_manager(mgr));
  mgr.close(*s1);
  EXPECT_NO_THROW(audit::check_session_manager(mgr));
}

TEST(AuditSession, CorruptedStatsFire) {
  // Attempts that do not split into accepted + blocking causes.
  conf::SessionStats stats;
  stats.attempts = 5;
  stats.accepted = 2;
  stats.blocked_placement = 1;
  stats.blocked_capacity = 1;  // 2 + 1 + 1 != 5
  audit_failure([&] { audit::check_session_stats(stats, 0); }, "session");

  // More live sessions than were ever accepted.
  conf::SessionStats ok;
  ok.attempts = 3;
  ok.accepted = 3;
  audit_failure([&] { audit::check_session_stats(ok, 4); }, "session");

  // More fault-refused joins than refused joins.
  conf::SessionStats joins = ok;
  joins.joins_blocked_fault = 1;
  audit_failure([&] { audit::check_session_stats(joins, 0); }, "session");

  // More repacked opens than accepted ones.
  conf::SessionStats repacked = ok;
  repacked.repacked = 4;
  audit_failure([&] { audit::check_session_stats(repacked, 0); }, "session");

  // Two sessions claiming the same port.
  audit_failure(
      [] {
        audit::check_disjoint_memberships({{0, 1}, {1, 2}}, 8, "session");
      },
      "session");
}

/// What a buddy churn on a direct fabric met: the highest interstage load
/// and the opens and joins refused for capacity.
struct ChurnSeen {
  u32 peak_load = 0;
  u32 capacity_refusals = 0;       // opens and joins
  u32 open_capacity_refusals = 0;  // opens alone
  std::uint64_t shared = 0;        // opens admitted on a shared region
};

/// Buddy open/join/leave/close churn on a direct fabric, with the session
/// audit (the cover bound included) run after every step.
ChurnSeen buddy_churn(min::Kind kind, const conf::DilationProfile& dilation) {
  const u32 n = dilation.n();
  conf::DirectConferenceNetwork net(kind, n, dilation);
  conf::SessionManager mgr(net, conf::PlacementPolicy::kBuddy);
  util::Rng rng(23);
  std::vector<u32> live;
  ChurnSeen seen;
  for (int step = 0; step < 800; ++step) {
    const std::uint64_t op = rng.below(10);
    if (op < 4 || live.empty()) {
      const auto [r, id] = mgr.open(static_cast<u32>(2 + rng.below(5)), rng);
      if (id) live.push_back(*id);
      seen.capacity_refusals += r == conf::OpenResult::kBlockedCapacity;
      seen.open_capacity_refusals += r == conf::OpenResult::kBlockedCapacity;
    } else {
      const std::size_t at = rng.below(live.size());
      const u32 id = live[at];
      if (op < 6) {
        seen.capacity_refusals +=
            mgr.join(id, rng).first == conf::OpenResult::kBlockedCapacity;
      } else if (op < 8) {
        const std::vector<u32> members = mgr.members_of(id);
        (void)mgr.leave(id, members[rng.below(members.size())]);
      } else {
        mgr.close(id);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
      }
    }
    EXPECT_NO_THROW(audit::check_session_manager(mgr))
        << min::kind_name(kind) << " " << dilation.label() << " step "
        << step;
    for (u32 level = 1; level < n; ++level)
      seen.peak_load = std::max(seen.peak_load, net.current_level_load(level));
  }
  seen.shared = mgr.stats().shared;
  return seen;
}

TEST(AuditSession, BuddyChurnHoldsR2OnEveryKind) {
  const u32 n = 5;
  for (min::Kind kind : min::kAllKinds) {
    const ChurnSeen unit =
        buddy_churn(kind, conf::DilationProfile::uniform(n, 1));
    const ChurnSeen full = buddy_churn(kind, conf::DilationProfile::full(n));
    if (min::has_block_block_windows(kind)) {
      // Baseline and flip conflict even under buddy placement: capacity
      // refuses at d=1 and links carry two conferences at full dilation,
      // and the audit, outside its premise, says nothing.
      EXPECT_GT(unit.capacity_refusals, 0u) << min::kind_name(kind);
      EXPECT_GE(full.peak_load, 2u) << min::kind_name(kind);
    } else {
      // Orthogonal windows: the audit's premise holds, and it stays
      // silent. Aligned windows are conflict-free, so capacity never
      // refuses an open; the churn outgrows its aligned blocks, so opens
      // share regions, and only those can put two conferences on a link
      // (at full dilation, where the cover bound admits them).
      EXPECT_EQ(unit.open_capacity_refusals, 0u) << min::kind_name(kind);
      EXPECT_EQ(full.open_capacity_refusals, 0u) << min::kind_name(kind);
      EXPECT_GT(full.shared, 0u) << min::kind_name(kind);
      // A port is covered at most twice: full dilation's narrowest
      // interstage level has two channels, the manager's cover limit.
      EXPECT_LE(full.peak_load, 2u) << min::kind_name(kind);
      if (unit.shared == 0) {
        EXPECT_LE(unit.peak_load, 1u) << min::kind_name(kind);
      }
    }
  }
}

TEST(AuditSession, R2ViolationsFire) {
  // Two conferences forced onto one omega link behind the buddy placer's
  // back (an R1 adversary), as a placement bug would.
  const u32 n = 4;
  const min::Kind kind = min::Kind::kOmega;
  const conf::ConferenceSet adversary =
      conf::adversarial_conference_set(kind, n, 2, 0);
  const auto& pair = adversary.conferences();
  ASSERT_GE(pair.size(), 2u);

  conf::DirectConferenceNetwork wide(kind, n, conf::DilationProfile::full(n));
  ASSERT_TRUE(wide.setup(pair[0].members()));
  ASSERT_TRUE(wide.setup(pair[1].members()));
  ASSERT_EQ(wide.current_level_load(2), 2u);
  // Their blocks, [0, 8) and [0, 16), both hold that link's crossing port:
  // the adversary breaks R2's premise (disjoint blocks), not the cover
  // bound, which the fabric's cross-check verifies for any groups.
  EXPECT_NO_THROW(wide.fabric().cross_check());
  const conf::SessionManager shared(wide, conf::PlacementPolicy::kBuddy);

  // At unit dilation the second one is refused for capacity instead.
  conf::DirectConferenceNetwork narrow(kind, n,
                                       conf::DilationProfile::uniform(n, 1));
  ASSERT_TRUE(narrow.setup(pair[0].members()));
  ASSERT_FALSE(narrow.setup(pair[1].members()));
  const conf::SessionManager refused(narrow, conf::PlacementPolicy::kBuddy);
  const std::string capacity = audit_failure(
      [&] { audit::check_session_manager(refused); }, "session");
  EXPECT_NE(capacity.find("capacity refused"), std::string::npos);

  // The same fabric outside R2's premise — another placer, or a dead
  // link — passes.
  const conf::SessionManager first_fit(wide, conf::PlacementPolicy::kFirstFit);
  EXPECT_NO_THROW(audit::check_session_manager(first_fit));
  (void)wide.fail_link(1, 0);
  EXPECT_NO_THROW(audit::check_session_manager(shared));
}

TEST(AuditSession, CapacityRefusalWithinTheCoverLimitFires) {
  // A cube of two channels a link: the manager's cover limit is 2, within
  // the narrowest capacity, so the cover bound vouches for every window it
  // places, shared or not. A first open takes [0, 64) with ports 0-32; a
  // second finds no free block and shares [36, 40).
  const u32 n = 6;
  conf::DirectConferenceNetwork net(min::Kind::kIndirectCube, n,
                                    conf::DilationProfile::uniform(n, 2));
  conf::SessionManager mgr(net, conf::PlacementPolicy::kBuddy);
  util::Rng rng(3);
  ASSERT_EQ(mgr.open(33, rng).first, conf::OpenResult::kAccepted);
  ASSERT_EQ(mgr.open(3, rng).first, conf::OpenResult::kAccepted);
  ASSERT_EQ(mgr.stats().shared, 1u);
  EXPECT_NO_THROW(audit::check_session_manager(mgr));

  // Behind the manager's back, as a placement bug would, three conferences
  // on free ports meet on one level-2 link: sources 48, 49 and 50 (one
  // in-window, the block [48, 52)) each reach a port of residue 0 mod 4.
  // The third is refused for link capacity, which under the limit no
  // window may meet, though the manager did share a region.
  for (u32 p : {44u, 48u, 49u, 50u, 56u, 60u})
    ASSERT_FALSE(mgr.placer().occupied(p)) << p;
  ASSERT_TRUE(net.setup({48, 56}));
  ASSERT_TRUE(net.setup({49, 60}));
  ASSERT_FALSE(net.setup({44, 50}));
  ASSERT_EQ(net.last_error(), conf::SetupError::kLinkCapacity);
  const std::string refused = audit_failure(
      [&] { audit::check_session_manager(mgr); }, "session");
  EXPECT_NE(refused.find("within the cover limit"), std::string::npos)
      << refused;
}

// --------------------------------------------------------------- waitqueue

TEST(AuditWaitQueue, HealthyManagerPasses) {
  conf::EnhancedCubeNetwork net(3);
  conf::WaitQueueManager wq(net, conf::PlacementPolicy::kBuddy, 16);
  util::Rng rng(13);
  std::vector<u32> open_sessions;
  // Fill the fabric until requests start queueing.
  for (int i = 0; i < 8; ++i) {
    auto r = wq.request(4, rng);
    if (r.outcome == conf::RequestOutcome::kServed)
      open_sessions.push_back(*r.session);
  }
  EXPECT_GT(wq.queue_length(), 0u);
  EXPECT_NO_THROW(audit::check_waitqueue(wq));
  // Departures admit waiters; the audit must hold through the transition.
  ASSERT_FALSE(open_sessions.empty());
  (void)wq.close(open_sessions.front(), rng);
  EXPECT_NO_THROW(audit::check_waitqueue(wq));
}

TEST(AuditWaitQueue, CorruptedQueueFires) {
  // FIFO issue order violated.
  audit_failure(
      [] { audit::check_ticket_queue({5, 3}, {2, 2}, 10, 10); }, "waitqueue");
  // Ticket id never issued (>= next_ticket).
  audit_failure(
      [] { audit::check_ticket_queue({12}, {2}, 10, 10); }, "waitqueue");
  // Queue longer than its capacity.
  audit_failure(
      [] { audit::check_ticket_queue({0, 1, 2}, {2, 2, 2}, 5, 2); },
      "waitqueue");
  // More services than the session manager ever accepted.
  conf::WaitStats stats;
  stats.served_immediately = 4;
  stats.served_after_wait = 2;
  audit_failure([&] { audit::check_wait_stats(stats, 5); }, "waitqueue");
}

// ----------------------------------------------------------------- designs

TEST(AuditDesigns, HealthyDirectNetworkPasses) {
  conf::DirectConferenceNetwork net(min::Kind::kOmega, 4,
                                    conf::DilationProfile::full(4));
  auto h1 = net.setup({0, 3, 9});
  auto h2 = net.setup({1, 2, 12, 14});
  ASSERT_TRUE(h1 && h2);
  EXPECT_NO_THROW(audit::check_fabric_network(net));
  net.teardown(*h1);
  EXPECT_NO_THROW(audit::check_fabric_network(net));
}

TEST(AuditDesigns, HealthyEnhancedNetworkPasses) {
  conf::EnhancedCubeNetwork net(4);
  auto h1 = net.setup({0, 1, 2, 3});
  auto h2 = net.setup({8, 9, 10, 11});
  ASSERT_TRUE(h1 && h2);
  EXPECT_NO_THROW(audit::check_fabric_network(net));
  ASSERT_TRUE(net.add_member(*h2, 12));
  EXPECT_NO_THROW(audit::check_fabric_network(net));
  net.teardown(*h1);
  EXPECT_NO_THROW(audit::check_fabric_network(net));
}

TEST(AuditDesigns, SharedInterstageLinkFires) {
  // Two conferences both using interstage row 2 at level 1 violate the
  // enhanced design's link-disjointness (the paper's nonblocking claim).
  const u32 levels = 4;  // n = 3
  std::vector<std::vector<std::vector<u32>>> groups = {
      {{0, 1}, {2}, {}, {}},
      {{4, 5}, {2}, {}, {}},
  };
  audit_failure(
      [&] { audit::check_link_disjoint(groups, levels, 8, "designs"); },
      "designs");
}

// ------------------------------------------------------------- hook plumb

TEST(AuditHook, HookCompilesInEveryBuildMode) {
  // In CONFNET_AUDIT builds this runs the audit; otherwise it is (void)0.
  const min::Network net(min::Kind::kOmega, 3);
  CONFNET_AUDIT_HOOK(audit::check_network(net));
  SUCCEED() << "audit hooks " << (audit::kEnabled ? "enabled" : "disabled");
}

}  // namespace
