// Dynamic membership: join/leave on both designs, delta link accounting,
// rollback on refusal, and long churn without leaks.
#include <gtest/gtest.h>

#include "conference/session.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace confnet::conf {
namespace {

using min::Kind;

TEST(Membership, DirectAddThenRemoveRestoresLoads) {
  DirectConferenceNetwork net(Kind::kOmega, 5, DilationProfile::full(5));
  const auto h = net.setup({3, 17});
  ASSERT_TRUE(h.has_value());
  std::vector<u32> loads_before(6);
  for (u32 l = 0; l <= 5; ++l) loads_before[l] = net.current_level_load(l);
  ASSERT_TRUE(net.add_member(*h, 9));
  EXPECT_EQ(net.members_for(*h), (std::vector<u32>{3, 9, 17}));
  EXPECT_TRUE(net.verify_delivery());
  ASSERT_TRUE(net.remove_member(*h, 9));
  EXPECT_EQ(net.members_for(*h), (std::vector<u32>{3, 17}));
  for (u32 l = 0; l <= 5; ++l)
    EXPECT_EQ(net.current_level_load(l), loads_before[l]) << "level " << l;
  EXPECT_TRUE(net.verify_delivery());
}

TEST(Membership, AddBusyPortRefused) {
  DirectConferenceNetwork net(Kind::kBaseline, 4, DilationProfile::full(4));
  const auto h1 = net.setup({0, 1});
  const auto h2 = net.setup({2, 3});
  ASSERT_TRUE(h1 && h2);
  EXPECT_FALSE(net.add_member(*h1, 2));
  EXPECT_EQ(net.last_error(), SetupError::kPortBusy);
  EXPECT_EQ(net.members_for(*h1), (std::vector<u32>{0, 1}));
}

TEST(Membership, RemoveBelowTwoRefused) {
  DirectConferenceNetwork net(Kind::kOmega, 4, DilationProfile::full(4));
  const auto h = net.setup({5, 6});
  ASSERT_TRUE(h.has_value());
  EXPECT_FALSE(net.remove_member(*h, 5));
  EXPECT_FALSE(net.remove_member(*h, 9));  // not a member
  EXPECT_EQ(net.members_for(*h).size(), 2u);
}

TEST(Membership, CapacityRefusalLeavesStateIntact) {
  // d=1 cube with random-ish members: growing one conference into another's
  // rows must fail atomically.
  DirectConferenceNetwork net(Kind::kIndirectCube, 3,
                              DilationProfile::uniform(3, 1));
  const auto h1 = net.setup({0, 1});  // aligned pair: rows 0..1 only
  const auto h2 = net.setup({6, 7});
  ASSERT_TRUE(h1 && h2);
  // Growing conference 1 to port 5 crosses into shared rows with {6,7}.
  const bool grown = net.add_member(*h1, 5);
  if (!grown) {
    EXPECT_EQ(net.last_error(), SetupError::kLinkCapacity);
    EXPECT_EQ(net.members_for(*h1), (std::vector<u32>{0, 1}));
    EXPECT_TRUE(net.verify_delivery());
  }
  // Either way the fabric stays consistent.
  EXPECT_TRUE(net.verify_delivery());
}

TEST(Membership, EnhancedJoinRaisesTapLevel) {
  EnhancedCubeNetwork net(4);
  const auto h = net.setup({4, 5});
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(net.tap_level(*h), 1u);
  ASSERT_TRUE(net.add_member(*h, 6));
  EXPECT_EQ(net.tap_level(*h), 2u);
  EXPECT_TRUE(net.verify_delivery());
  ASSERT_TRUE(net.remove_member(*h, 6));
  EXPECT_EQ(net.tap_level(*h), 1u);
  EXPECT_TRUE(net.verify_delivery());
}

TEST(Membership, EnhancedJoinOutsideBlockMayConflict) {
  EnhancedCubeNetwork net(3);
  const auto h1 = net.setup({0, 1});
  const auto h2 = net.setup({5, 6});  // straddles the middle: rows 4..7
  ASSERT_TRUE(h1 && h2);
  // Growing {0,1} to include 4 pushes its level-1/2 footprint onto rows
  // {4,5}, which {5,6}'s realization already occupies.
  EXPECT_FALSE(net.add_member(*h1, 4));
  EXPECT_EQ(net.last_error(), SetupError::kLinkCapacity);
  EXPECT_EQ(net.members_for(*h1), (std::vector<u32>{0, 1}));
  EXPECT_TRUE(net.verify_delivery());
}

TEST(Membership, SessionJoinLeaveWithBuddyStaysInBlock) {
  EnhancedCubeNetwork net(5);
  SessionManager mgr(net, PlacementPolicy::kBuddy);
  util::Rng rng(1);
  const auto [r, sid] = mgr.open(5, rng);  // buddy block of 8
  ASSERT_EQ(r, OpenResult::kAccepted);
  const u32 base = mgr.members_of(*sid).front();
  EXPECT_EQ(base % 8, 0u);
  // Three joins fit in the block; the fourth is blocked (no migration).
  for (int i = 0; i < 3; ++i) {
    const auto [jr, port] = mgr.join(*sid, rng);
    ASSERT_EQ(jr, OpenResult::kAccepted) << "join " << i;
    EXPECT_GE(*port, base);
    EXPECT_LT(*port, base + 8);
  }
  const auto [jr, port] = mgr.join(*sid, rng);
  EXPECT_EQ(jr, OpenResult::kBlockedPlacement);
  EXPECT_FALSE(port.has_value());
  EXPECT_EQ(mgr.stats().joins, 3u);
  EXPECT_EQ(mgr.stats().joins_blocked, 1u);
  EXPECT_TRUE(net.verify_delivery());
}

TEST(Membership, SessionLeaveThenCloseReleasesEverything) {
  DirectConferenceNetwork net(Kind::kIndirectCube, 4,
                              DilationProfile::uniform(4, 1));
  SessionManager mgr(net, PlacementPolicy::kBuddy);
  util::Rng rng(2);
  const auto [r, sid] = mgr.open(4, rng);
  ASSERT_EQ(r, OpenResult::kAccepted);
  const auto members = mgr.members_of(*sid);
  // The block's base member leaves: release-by-block must still work.
  ASSERT_TRUE(mgr.leave(*sid, members.front()));
  ASSERT_TRUE(mgr.leave(*sid, members[1]));
  EXPECT_FALSE(mgr.leave(*sid, members[2]));  // would drop below 2
  mgr.close(*sid);
  // The whole network is free again.
  const auto [r2, sid2] = mgr.open(16, rng);
  EXPECT_EQ(r2, OpenResult::kAccepted);
  mgr.close(*sid2);
}

TEST(Membership, ChurnInvariantUnderLongRun) {
  util::Rng rng(3);
  EnhancedCubeNetwork net(6);
  SessionManager mgr(net, PlacementPolicy::kBuddy);
  std::vector<u32> live;
  for (int step = 0; step < 3000; ++step) {
    const double toss = rng.uniform();
    if (!live.empty() && toss < 0.2) {
      const auto idx = static_cast<std::size_t>(rng.below(live.size()));
      mgr.close(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (!live.empty() && toss < 0.45) {
      const u32 sid = live[rng.below(live.size())];
      (void)mgr.join(sid, rng);
    } else if (!live.empty() && toss < 0.6) {
      const u32 sid = live[rng.below(live.size())];
      const auto& members = mgr.members_of(sid);
      (void)mgr.leave(sid, members[rng.below(members.size())]);
    } else {
      const u32 size = 2 + static_cast<u32>(rng.below(6));
      const auto [r, sid] = mgr.open(size, rng);
      // Buddy + enhanced: capacity blocking must never happen, even with
      // dynamic membership (joins stay inside blocks).
      EXPECT_NE(r, OpenResult::kBlockedCapacity);
      if (sid) live.push_back(*sid);
    }
    if (step % 500 == 0) {
      EXPECT_TRUE(net.verify_delivery()) << step;
    }
  }
  for (u32 sid : live) mgr.close(sid);
  EXPECT_EQ(net.active_count(), 0u);
  util::Rng rng2(9);
  const auto [r, sid] = mgr.open(64, rng2);
  EXPECT_EQ(r, OpenResult::kAccepted);
}

TEST(Membership, DirectChurnAllTopologiesStayConsistent) {
  util::Rng rng(7);
  for (Kind kind : min::kAllKinds) {
    DirectConferenceNetwork net(kind, 5, DilationProfile::full(5));
    SessionManager mgr(net, PlacementPolicy::kRandom);
    std::vector<u32> live;
    for (int step = 0; step < 400; ++step) {
      const double toss = rng.uniform();
      if (!live.empty() && toss < 0.2) {
        const auto idx = static_cast<std::size_t>(rng.below(live.size()));
        mgr.close(live[idx]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      } else if (!live.empty() && toss < 0.5) {
        const u32 sid = live[rng.below(live.size())];
        const auto [r, port] = mgr.join(sid, rng);
        // Full dilation: joins can only fail for placement.
        EXPECT_NE(r, OpenResult::kBlockedCapacity) << min::kind_name(kind);
      } else if (!live.empty() && toss < 0.65) {
        const u32 sid = live[rng.below(live.size())];
        const auto& members = mgr.members_of(sid);
        (void)mgr.leave(sid, members[rng.below(members.size())]);
      } else {
        const auto [r, sid] = mgr.open(2, rng);
        if (sid) live.push_back(*sid);
      }
    }
    EXPECT_TRUE(net.verify_delivery()) << min::kind_name(kind);
  }
}

}  // namespace
}  // namespace confnet::conf
