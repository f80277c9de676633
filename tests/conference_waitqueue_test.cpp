// Wait-queue admission: FIFO order, head-of-line semantics, bypass,
// abandonment, accounting.
#include "conference/waitqueue.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace confnet::conf {
namespace {

using min::Kind;

TEST(WaitQueue, ServesImmediatelyWhenRoom) {
  DirectConferenceNetwork net(Kind::kIndirectCube, 4,
                              DilationProfile::full(4));
  WaitQueueManager wq(net, PlacementPolicy::kFirstFit, 8);
  util::Rng rng(1);
  const auto r = wq.request(4, rng);
  EXPECT_EQ(r.outcome, RequestOutcome::kServed);
  ASSERT_TRUE(r.session.has_value());
  EXPECT_EQ(wq.queue_length(), 0u);
  EXPECT_EQ(wq.wait_stats().served_immediately, 1u);
}

TEST(WaitQueue, QueuesWhenFullAndServesOnDeparture) {
  DirectConferenceNetwork net(Kind::kIndirectCube, 3,
                              DilationProfile::full(3));
  WaitQueueManager wq(net, PlacementPolicy::kFirstFit, 8);
  util::Rng rng(2);
  const auto big = wq.request(8, rng);  // takes the whole network
  ASSERT_EQ(big.outcome, RequestOutcome::kServed);
  const auto waiting = wq.request(4, rng);
  EXPECT_EQ(waiting.outcome, RequestOutcome::kQueued);
  ASSERT_TRUE(waiting.ticket.has_value());
  EXPECT_EQ(wq.queue_length(), 1u);

  const auto served = wq.close(*big.session, rng);
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].ticket.id, waiting.ticket->id);
  EXPECT_EQ(wq.queue_length(), 0u);
  EXPECT_EQ(wq.wait_stats().served_after_wait, 1u);
}

TEST(WaitQueue, FifoOrderPreserved) {
  DirectConferenceNetwork net(Kind::kIndirectCube, 3,
                              DilationProfile::full(3));
  WaitQueueManager wq(net, PlacementPolicy::kFirstFit, 8);
  util::Rng rng(3);
  const auto big = wq.request(8, rng);
  const auto w1 = wq.request(4, rng);
  const auto w2 = wq.request(4, rng);
  ASSERT_EQ(w1.outcome, RequestOutcome::kQueued);
  ASSERT_EQ(w2.outcome, RequestOutcome::kQueued);
  const auto served = wq.close(*big.session, rng);
  ASSERT_EQ(served.size(), 2u);
  EXPECT_EQ(served[0].ticket.id, w1.ticket->id);
  EXPECT_EQ(served[1].ticket.id, w2.ticket->id);
}

TEST(WaitQueue, StrictFifoBlocksBehindLargeHead) {
  DirectConferenceNetwork net(Kind::kIndirectCube, 3,
                              DilationProfile::full(3));
  WaitQueueManager wq(net, PlacementPolicy::kFirstFit, 8,
                      /*allow_bypass=*/false);
  util::Rng rng(4);
  const auto a = wq.request(6, rng);  // leaves 2 free ports
  ASSERT_EQ(a.outcome, RequestOutcome::kServed);
  const auto head = wq.request(8, rng);  // cannot fit until `a` leaves
  ASSERT_EQ(head.outcome, RequestOutcome::kQueued);
  // A small request that *would* fit queues behind the head (no bypass)...
  const auto small = wq.request(2, rng);
  EXPECT_EQ(small.outcome, RequestOutcome::kQueued);
  EXPECT_EQ(wq.queue_length(), 2u);
  // ...once `a` departs the head takes the whole network; the small waiter
  // stays queued until the head itself departs.
  const auto served = wq.close(*a.session, rng);
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].ticket.id, head.ticket->id);
  EXPECT_EQ(wq.queue_length(), 1u);
  const auto served2 = wq.close(served[0].session, rng);
  ASSERT_EQ(served2.size(), 1u);
  EXPECT_EQ(served2[0].ticket.id, small.ticket->id);
}

TEST(WaitQueue, BypassAdmitsSmallPastStuckHead) {
  DirectConferenceNetwork net(Kind::kIndirectCube, 3,
                              DilationProfile::full(3));
  WaitQueueManager wq(net, PlacementPolicy::kFirstFit, 8,
                      /*allow_bypass=*/true);
  util::Rng rng(5);
  const auto a = wq.request(6, rng);
  const auto head = wq.request(8, rng);
  ASSERT_EQ(head.outcome, RequestOutcome::kQueued);
  // With bypass the small request is admitted immediately into the slack.
  const auto small = wq.request(2, rng);
  EXPECT_EQ(small.outcome, RequestOutcome::kServed);
  (void)a;
}

TEST(WaitQueue, RejectsWhenQueueFull) {
  DirectConferenceNetwork net(Kind::kIndirectCube, 2,
                              DilationProfile::full(2));
  WaitQueueManager wq(net, PlacementPolicy::kFirstFit, 2);
  util::Rng rng(6);
  ASSERT_EQ(wq.request(4, rng).outcome, RequestOutcome::kServed);
  EXPECT_EQ(wq.request(2, rng).outcome, RequestOutcome::kQueued);
  EXPECT_EQ(wq.request(2, rng).outcome, RequestOutcome::kQueued);
  EXPECT_EQ(wq.request(2, rng).outcome, RequestOutcome::kRejected);
  EXPECT_EQ(wq.wait_stats().rejected, 1u);
}

TEST(WaitQueue, ZeroCapacityIsPureLoss) {
  DirectConferenceNetwork net(Kind::kIndirectCube, 2,
                              DilationProfile::full(2));
  WaitQueueManager wq(net, PlacementPolicy::kFirstFit, 0);
  util::Rng rng(7);
  ASSERT_EQ(wq.request(4, rng).outcome, RequestOutcome::kServed);
  EXPECT_EQ(wq.request(2, rng).outcome, RequestOutcome::kRejected);
}

TEST(WaitQueue, AbandonRemovesTicket) {
  DirectConferenceNetwork net(Kind::kIndirectCube, 3,
                              DilationProfile::full(3));
  WaitQueueManager wq(net, PlacementPolicy::kFirstFit, 4);
  util::Rng rng(8);
  const auto big = wq.request(8, rng);
  const auto w = wq.request(2, rng);
  ASSERT_EQ(w.outcome, RequestOutcome::kQueued);
  EXPECT_TRUE(wq.abandon(*w.ticket));
  EXPECT_FALSE(wq.abandon(*w.ticket));
  EXPECT_EQ(wq.queue_length(), 0u);
  EXPECT_EQ(wq.wait_stats().abandoned, 1u);
  // Departure now serves nobody.
  EXPECT_TRUE(wq.close(*big.session, rng).empty());
}

TEST(WaitQueue, QueuedTicketWaitsForAnAlignedBlockUnderBuddy) {
  // n = 3, two channels: a conference of five takes [0, 8) and one of
  // three, arriving to an empty queue, shares [4, 8). A pair then queues
  // (no free port). Two members leave [2, 4): a shared region with room
  // again, but no free aligned block, so the queue pass leaves the ticket
  // waiting where an arriving open would share.
  DirectConferenceNetwork net(Kind::kIndirectCube, 3,
                              DilationProfile::uniform(3, 2));
  WaitQueueManager wq(net, PlacementPolicy::kBuddy, 8);
  util::Rng rng(7);
  const auto five = wq.request(5, rng);
  ASSERT_EQ(five.outcome, RequestOutcome::kServed);
  ASSERT_EQ(wq.request(3, rng).outcome, RequestOutcome::kServed);
  EXPECT_EQ(wq.sessions().stats().shared, 1u);
  ASSERT_EQ(wq.request(2, rng).outcome, RequestOutcome::kQueued);
  ASSERT_TRUE(wq.sessions().leave(*five.session, 2));
  ASSERT_TRUE(wq.sessions().leave(*five.session, 3));
  EXPECT_TRUE(wq.drain(rng).empty());
  EXPECT_EQ(wq.queue_length(), 1u);
  const auto shared = wq.sessions().open(2, rng);
  ASSERT_EQ(shared.first, OpenResult::kAccepted);
  EXPECT_EQ(wq.sessions().members_of(*shared.second),
            (std::vector<u32>{2, 3}));
  EXPECT_EQ(wq.sessions().stats().shared, 2u);
}

TEST(WaitQueue, CascadedAdmissionsOnOneDeparture) {
  // One departure can admit several waiters.
  DirectConferenceNetwork net(Kind::kIndirectCube, 3,
                              DilationProfile::full(3));
  WaitQueueManager wq(net, PlacementPolicy::kFirstFit, 8);
  util::Rng rng(9);
  const auto big = wq.request(8, rng);
  const auto w1 = wq.request(2, rng);
  const auto w2 = wq.request(3, rng);
  const auto w3 = wq.request(3, rng);
  ASSERT_TRUE(w1.ticket && w2.ticket && w3.ticket);
  const auto served = wq.close(*big.session, rng);
  EXPECT_EQ(served.size(), 3u);
  EXPECT_EQ(wq.wait_stats().served_after_wait, 3u);
}

}  // namespace
}  // namespace confnet::conf
