// Session manager: placement + admission coupling, statistics, lifecycle.
#include "conference/session.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace confnet::conf {
namespace {

using min::Kind;

TEST(Session, OpenCloseLifecycle) {
  DirectConferenceNetwork net(Kind::kIndirectCube, 4,
                              DilationProfile::full(4));
  SessionManager mgr(net, PlacementPolicy::kBuddy);
  util::Rng rng(1);
  const auto [r1, s1] = mgr.open(4, rng);
  EXPECT_EQ(r1, OpenResult::kAccepted);
  ASSERT_TRUE(s1.has_value());
  EXPECT_EQ(mgr.active_sessions(), 1u);
  EXPECT_EQ(mgr.members_of(*s1).size(), 4u);
  mgr.close(*s1);
  EXPECT_EQ(mgr.active_sessions(), 0u);
  EXPECT_EQ(net.active_count(), 0u);
}

TEST(Session, PlacementBlockingWhenFull) {
  DirectConferenceNetwork net(Kind::kOmega, 3, DilationProfile::full(3));
  SessionManager mgr(net, PlacementPolicy::kFirstFit);
  util::Rng rng(2);
  const auto [r1, s1] = mgr.open(8, rng);
  EXPECT_EQ(r1, OpenResult::kAccepted);
  const auto [r2, s2] = mgr.open(2, rng);
  EXPECT_EQ(r2, OpenResult::kBlockedPlacement);
  EXPECT_FALSE(s2.has_value());
  EXPECT_EQ(mgr.stats().attempts, 2u);
  EXPECT_EQ(mgr.stats().blocked_placement, 1u);
  EXPECT_DOUBLE_EQ(mgr.stats().blocking_probability(), 0.5);
}

TEST(Session, CapacityBlockingReleasesPorts) {
  // Enhanced cube with random placement: capacity blocks happen, and the
  // ports taken for the failed attempt must be returned.
  EnhancedCubeNetwork net(3);
  SessionManager mgr(net, PlacementPolicy::kRandom);
  util::Rng rng(3);
  u32 capacity_blocks = 0;
  std::vector<u32> open;
  for (int i = 0; i < 20; ++i) {
    const auto [r, s] = mgr.open(2, rng);
    if (r == OpenResult::kAccepted) {
      open.push_back(*s);
    } else if (r == OpenResult::kBlockedCapacity) {
      ++capacity_blocks;
    } else {
      break;  // placement exhausted
    }
  }
  // Ports from blocked attempts were freed: total placed ports equals
  // 2 * open sessions.
  u32 placed = 0;
  for (u32 s : open) placed += static_cast<u32>(mgr.members_of(s).size());
  EXPECT_EQ(placed, 2 * open.size());
  EXPECT_EQ(mgr.stats().blocked_capacity, capacity_blocks);
  for (u32 s : open) mgr.close(s);
  // After closing everything a full-size conference fits again.
  const auto [r, s] = mgr.open(8, rng);
  EXPECT_EQ(r, OpenResult::kAccepted);
  EXPECT_TRUE(net.verify_delivery());
  mgr.close(*s);
}

TEST(Session, LinkRefusalIsRePlacedBeforeBlocking) {
  // Dilation 1: first-fit's window {3,4} shares a link with {0,1,2}, so
  // the open is re-placed onto {5,6}; the next 2-member open finds no
  // window the fabric carries and blocks on capacity after the full loop.
  DirectConferenceNetwork net(Kind::kOmega, 3, DilationProfile::uniform(3, 1));
  SessionManager mgr(net, PlacementPolicy::kFirstFit);
  util::Rng rng(9);
  const u32 a = *mgr.open(3, rng).second;
  EXPECT_EQ(mgr.members_of(a), (std::vector<u32>{0, 1, 2}));
  EXPECT_EQ(mgr.stats().repacked, 0u);
  EXPECT_FALSE(net.setup({3, 4}).has_value());
  EXPECT_EQ(net.last_error(), SetupError::kLinkCapacity);

  const SessionStats before = mgr.stats();
  const auto [r, b] = mgr.open(2, rng);
  ASSERT_EQ(r, OpenResult::kAccepted);
  EXPECT_EQ(mgr.members_of(*b), (std::vector<u32>{5, 6}));
  const SessionStats delta = mgr.stats().since(before);
  EXPECT_EQ(delta.accepted, 1u);
  EXPECT_EQ(delta.repacked, 1u);
  // The held window {3,4} went back to the placer.
  EXPECT_EQ(mgr.busy_ports(), 5u);

  const auto [blocked, none] = mgr.open(2, rng);
  EXPECT_EQ(blocked, OpenResult::kBlockedCapacity);
  EXPECT_FALSE(none.has_value());
  EXPECT_EQ(mgr.busy_ports(), 5u);
  EXPECT_EQ(mgr.stats().accepted, 2u);
  EXPECT_EQ(mgr.stats().repacked, 1u);
  EXPECT_EQ(mgr.stats().blocked_capacity, 1u);
  EXPECT_TRUE(net.verify_delivery());
}

TEST(Session, BuddyPlusEnhancedNeverCapacityBlocks) {
  // The design claim end-to-end: aligned placement + enhanced cube never
  // refuses for capacity, only for lack of ports.
  EnhancedCubeNetwork net(5);
  SessionManager mgr(net, PlacementPolicy::kBuddy);
  util::Rng rng(4);
  for (int step = 0; step < 2000; ++step) {
    const u32 size = 2 + static_cast<u32>(rng.below(7));
    const auto [r, s] = mgr.open(size, rng);
    EXPECT_NE(r, OpenResult::kBlockedCapacity) << "step " << step;
    if (s && rng.chance(0.5)) mgr.close(*s);
  }
  EXPECT_TRUE(net.verify_delivery());
}

TEST(Session, CloseUnknownThrows) {
  DirectConferenceNetwork net(Kind::kOmega, 3, DilationProfile::full(3));
  SessionManager mgr(net, PlacementPolicy::kBuddy);
  EXPECT_THROW(mgr.close(5), Error);
}

TEST(Session, StatsAccumulate) {
  DirectConferenceNetwork net(Kind::kButterfly, 4, DilationProfile::full(4));
  SessionManager mgr(net, PlacementPolicy::kFirstFit);
  util::Rng rng(6);
  for (int i = 0; i < 10; ++i) {
    const auto [r, s] = mgr.open(2, rng);
    (void)r;
    (void)s;
  }
  EXPECT_EQ(mgr.stats().attempts, 10u);
  EXPECT_EQ(mgr.stats().accepted + mgr.stats().blocked_placement +
                mgr.stats().blocked_capacity,
            10u);
}

TEST(Session, ReinstateMovesAReplacementOntoItsRetiredId) {
  DirectConferenceNetwork net(Kind::kOmega, 4, DilationProfile::full(4));
  SessionManager mgr(net, PlacementPolicy::kFirstFit);
  util::Rng rng(7);
  const u32 a = *mgr.open(2, rng).second;
  const u32 b = *mgr.open(3, rng).second;
  mgr.interrupt(a);
  const u32 replacement = *mgr.open(2, rng).second;
  const std::vector<u32> members = mgr.members_of(replacement);
  // Neither a live id nor one never minted can take a replacement.
  EXPECT_THROW(mgr.reinstate(replacement, b), Error);
  EXPECT_THROW(mgr.reinstate(replacement, replacement + 1), Error);
  mgr.reinstate(replacement, a);
  EXPECT_TRUE(mgr.contains(a));
  EXPECT_FALSE(mgr.contains(replacement));
  EXPECT_EQ(mgr.members_of(a), members);
  EXPECT_EQ(mgr.active_sessions(), 2u);
  // The replacement id stays retired: the next open mints a fresh one.
  EXPECT_GT(*mgr.open(2, rng).second, replacement);
}

TEST(Session, BusyPortsCountEveryLiveMember) {
  DirectConferenceNetwork net(Kind::kIndirectCube, 4,
                              DilationProfile::full(4));
  SessionManager mgr(net, PlacementPolicy::kRandom);
  util::Rng rng(8);
  EXPECT_EQ(mgr.busy_ports(), 0u);
  const u32 a = *mgr.open(3, rng).second;
  const u32 b = *mgr.open(4, rng).second;
  EXPECT_EQ(mgr.busy_ports(), 7u);
  ASSERT_EQ(mgr.join(a, rng).first, OpenResult::kAccepted);
  EXPECT_EQ(mgr.busy_ports(), 8u);
  ASSERT_TRUE(mgr.leave(b, mgr.members_of(b).front()));
  EXPECT_EQ(mgr.busy_ports(), 7u);
  mgr.close(a);
  EXPECT_EQ(mgr.busy_ports(), 3u);
}

}  // namespace
}  // namespace confnet::conf
