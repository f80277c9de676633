// Discrete-event engine: ordering, determinism, time semantics.
#include "sim/des.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace confnet::sim {
namespace {

/// The kinds of the events fired, in firing order.
std::vector<std::uint32_t> fire_all(Simulator& des, SimTime t_end) {
  std::vector<std::uint32_t> kinds;
  des.run_until(t_end, [&](const Event& ev) {
    kinds.push_back(ev.kind);
    return true;
  });
  return kinds;
}

TEST(Des, FiresInTimeOrder) {
  Simulator des;
  des.schedule(3.0, 3);
  des.schedule(1.0, 1);
  des.schedule(2.0, 2);
  EXPECT_EQ(fire_all(des, 10.0), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(des.events_processed(), 3u);
}

TEST(Des, TieBreaksByScheduleOrder) {
  Simulator des;
  for (std::uint32_t i = 0; i < 5; ++i) des.schedule(1.0, 0, {.a = i});
  std::vector<std::uint32_t> order;
  des.run_until(2.0, [&](const Event& ev) {
    order.push_back(ev.args.a);
    return true;
  });
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(Des, EventsCarryTheirArgs) {
  Simulator des;
  des.schedule(1.0, 7, {.id = 1ull << 40, .a = 1, .b = 2, .c = 3});
  des.run_until(2.0, [&](const Event& ev) {
    EXPECT_EQ(ev.kind, 7u);
    EXPECT_EQ(ev.args.id, 1ull << 40);
    EXPECT_EQ(ev.args.a, 1u);
    EXPECT_EQ(ev.args.b, 2u);
    EXPECT_EQ(ev.args.c, 3u);
    return true;
  });
  EXPECT_EQ(des.events_processed(), 1u);
}

TEST(Des, NowAdvancesWithEvents) {
  Simulator des;
  des.schedule(5.0, 0);
  des.run_until(10.0, [&](const Event&) {
    EXPECT_DOUBLE_EQ(des.now(), 5.0);
    return true;
  });
  EXPECT_DOUBLE_EQ(des.now(), 10.0);  // clamps to horizon
}

TEST(Des, EventsBeyondHorizonStayQueued) {
  Simulator des;
  des.schedule(100.0, 0);
  EXPECT_TRUE(fire_all(des, 50.0).empty());
  EXPECT_DOUBLE_EQ(des.now(), 50.0);
  EXPECT_EQ(fire_all(des, 150.0).size(), 1u);
}

TEST(Des, EventsCanScheduleEvents) {
  Simulator des;
  int chain = 0;
  des.schedule(0.5, 0);
  des.run_until(100.0, [&](const Event&) {
    if (++chain < 10) des.schedule_in(1.0, 0);
    return true;
  });
  EXPECT_EQ(chain, 10);
  EXPECT_DOUBLE_EQ(des.now(), 100.0);
}

TEST(Des, SchedulingInThePastThrows) {
  Simulator des;
  des.schedule(5.0, 0);
  des.run_until(10.0, [&](const Event&) {
    EXPECT_THROW(des.schedule(1.0, 0), Error);
    return true;
  });
}

TEST(Des, FalseFromTheHandlerEndsTheRun) {
  Simulator des;
  des.schedule(1.0, 1);
  des.schedule(2.0, 2);
  int fired = 0;
  des.run_until(10.0, [&](const Event&) {
    ++fired;
    return false;
  });
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(des.now(), 1.0);  // stopped short of the horizon
  // A subsequent run resumes with the queued event.
  EXPECT_EQ(fire_all(des, 10.0), (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(des.events_processed(), 2u);
}

}  // namespace
}  // namespace confnet::sim
