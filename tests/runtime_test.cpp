// Functional tests of the concurrent admission runtime: command routing,
// the bounded-queue edge cases (backpressure, bounce-once accounting
// across retries, drain-on-stop with in-flight batches, post-stop
// rejection), queue-slot lifetimes (a slot holds a value only while it is
// queued), the lock-lean producer path (pooled completions that
// recycle their slots, staged bursts with one wake per flush, tiny-queue
// flushes that must not self-deadlock), cross-shard snapshot consistency,
// fault commands, the worker-count determinism contract (per-shard
// outcomes depend only on the per-shard command sequence and seed, never
// on how shards are packed onto worker threads), and the single tally:
// conference counts reach the obs::Registry once, when their owner is
// destroyed, and each command leaves one record in the global tracer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "conference/designs.hpp"
#include "conference/recovery.hpp"
#include "conference/waitqueue.hpp"
#include "min/types.hpp"
#include "runtime/command.hpp"
#include "runtime/queue.hpp"
#include "runtime/runtime.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace {

using confnet::min::u32;
using confnet::min::u64;
namespace conf = confnet::conf;
namespace obs = confnet::obs;
namespace rt = confnet::runtime;

rt::RuntimeConfig small_config(u32 shards, u32 workers) {
  rt::RuntimeConfig cfg;
  cfg.shards = shards;
  cfg.workers = workers;
  cfg.shard.stages = 4;  // 16 ports per shard
  cfg.shard.queue_depth = 64;
  cfg.shard.wait_capacity = 8;
  cfg.shard.seed = 42;
  return cfg;
}

rt::Command open_cmd(u32 size) {
  rt::Command c;
  c.kind = rt::CommandKind::kOpen;
  c.size = size;
  return c;
}

// ---------------------------------------------------------------------------
// Basic lifecycle and command round-trips.
// ---------------------------------------------------------------------------

TEST(Runtime, OpenCloseRoundTripThroughPooledResults) {
  rt::Runtime r(small_config(2, 1));
  r.start();

  auto opened = r.call_pooled(0, open_cmd(3)).take();
  ASSERT_EQ(opened.status, rt::CommandStatus::kDone);
  ASSERT_EQ(opened.open.outcome, conf::RequestOutcome::kServed);
  ASSERT_TRUE(opened.open.session.has_value());
  EXPECT_EQ(opened.shard, 0u);

  rt::Command close;
  close.kind = rt::CommandKind::kClose;
  close.session = *opened.open.session;
  auto closed = r.call_pooled(0, std::move(close)).take();
  EXPECT_EQ(closed.status, rt::CommandStatus::kDone);
  EXPECT_TRUE(closed.ok);

  r.stop();
  const rt::RuntimeSnapshot snap = r.snapshot();
  EXPECT_EQ(snap.total.opens, 1u);
  EXPECT_EQ(snap.total.accepted, 1u);
  EXPECT_EQ(snap.total.closes, 1u);
  EXPECT_EQ(snap.total.active_sessions, 0u);
}

TEST(Runtime, StagedOpenBurstMatchesSerialOracle) {
  // A staged burst is the commands in stage order, nothing more: each
  // verdict and session id equals a serial WaitQueueManager's fed the
  // same sizes with the shard's seed. (Not all three need to be admitted —
  // blocking is the point of these fabrics.)
  const std::vector<u32> sizes = {5, 3, 2};
  const rt::RuntimeConfig cfg = small_config(1, 1);
  rt::Runtime r(cfg);
  r.start();
  rt::CommandStage stage;
  std::vector<rt::PooledResult> pending;
  for (u32 size : sizes)
    pending.push_back(r.stage_call(stage, 0, open_cmd(size)));
  ASSERT_EQ(r.submit_stage(stage), rt::SubmitStatus::kAccepted);
  std::vector<rt::CommandResult> results;
  for (auto& p : pending) results.push_back(p.take());
  r.stop();

  conf::DirectConferenceNetwork net(
      cfg.shard.kind, cfg.shard.stages,
      conf::DilationProfile::uniform(cfg.shard.stages, 1));
  conf::WaitQueueManager oracle(net, cfg.shard.policy,
                                cfg.shard.wait_capacity,
                                cfg.shard.wait_bypass, cfg.shard.backend);
  confnet::util::Rng rng(cfg.shard.seed);
  u32 served = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto expected = oracle.request(sizes[i], rng);
    ASSERT_EQ(results[i].status, rt::CommandStatus::kDone);
    EXPECT_EQ(results[i].open.outcome, expected.outcome) << "open " << i;
    EXPECT_EQ(results[i].open.session, expected.session) << "open " << i;
    if (results[i].open.session) ++served;
  }
  EXPECT_GE(served, 1u);
  const rt::RuntimeSnapshot snap = r.snapshot();
  EXPECT_EQ(snap.total.opens, 3u);
  EXPECT_EQ(snap.total.accepted, static_cast<u64>(served));
}

// ---------------------------------------------------------------------------
// Queue edge cases.
// ---------------------------------------------------------------------------

TEST(Runtime, FullQueueBackpressureReturnsCommandToCaller) {
  // No workers running yet, so the queue can only fill: capacity accepts,
  // the next non-blocking Shard::submit bounces with kQueueFull and the
  // command is NOT consumed (its completion must never fire).
  rt::RuntimeConfig cfg = small_config(1, 1);
  cfg.shard.queue_depth = 4;
  rt::Runtime r(cfg);

  std::atomic<int> completions{0};
  for (int i = 0; i < 4; ++i) {
    rt::Command c = open_cmd(2);
    c.done = [&](rt::CommandResult&&) { completions.fetch_add(1); };
    EXPECT_EQ(r.shard(0).submit(std::move(c)), rt::SubmitStatus::kAccepted);
  }
  rt::Command extra = open_cmd(2);
  bool extra_completed = false;
  extra.done = [&](rt::CommandResult&&) { extra_completed = true; };
  EXPECT_EQ(r.shard(0).submit(std::move(extra)),
            rt::SubmitStatus::kQueueFull);
  EXPECT_FALSE(extra_completed);
  EXPECT_TRUE(static_cast<bool>(extra.done));  // caller still owns it

  // Once workers run, the backlog drains and a resubmit goes through.
  r.start();
  r.drain();
  EXPECT_EQ(r.submit_to_blocking(0, std::move(extra)),
            rt::SubmitStatus::kAccepted);
  r.drain();
  r.stop();
  EXPECT_EQ(completions.load(), 4);
  EXPECT_TRUE(extra_completed);
  EXPECT_EQ(r.snapshot().total.completed, 5u);
}

/// Queue element that counts its constructions and destructions (copies
/// and moves included) and pins a shared token while it is alive. Copy-only
/// on purpose: a moved-from slot keeps its token, so only a slot that is
/// actually emptied releases it.
struct Counted {
  static inline int constructed = 0;
  static inline int destroyed = 0;
  static void reset_counts() { constructed = destroyed = 0; }
  static int alive() { return constructed - destroyed; }

  // Default-constructible, so a ring that pre-built its slots would
  // compile and show up in the counts.
  Counted() : Counted(0) {}
  explicit Counted(int v, std::shared_ptr<int> t = nullptr)
      : value(v), token(std::move(t)) {
    ++constructed;
  }
  Counted(const Counted& o) : value(o.value), token(o.token) { ++constructed; }
  Counted& operator=(const Counted&) = default;
  ~Counted() { ++destroyed; }

  int value;
  std::shared_ptr<int> token;
};

TEST(QueueSlots, ConstructionBuildsNoElements) {
  Counted::reset_counts();
  const rt::BoundedMpscQueue<Counted> q(256);
  EXPECT_EQ(Counted::constructed, 0);
  EXPECT_EQ(q.size(), 0u);
}

TEST(QueueSlots, PopReleasesWhatTheItemOwns) {
  // A Command's `done` capture must die when the command is popped and
  // consumed, not `capacity` pushes later when its slot is reused.
  rt::BoundedMpscQueue<rt::Command> commands(4);
  auto captured = std::make_shared<int>(7);
  rt::Command c = open_cmd(2);
  c.done = [captured](rt::CommandResult&&) {};
  ASSERT_EQ(commands.try_push(std::move(c)), rt::QueuePush::kOk);
  EXPECT_EQ(captured.use_count(), 2);
  std::vector<rt::Command> burst;
  ASSERT_EQ(commands.pop_batch(burst, 8).taken, 1u);
  burst.clear();
  EXPECT_EQ(captured.use_count(), 1);

  // The same for an element whose move leaves its source intact.
  Counted::reset_counts();
  rt::BoundedMpscQueue<Counted> q(4);
  auto token = std::make_shared<int>(0);
  ASSERT_EQ(q.try_push(Counted(1, token)), rt::QueuePush::kOk);
  EXPECT_EQ(token.use_count(), 2);
  std::vector<Counted> out;
  ASSERT_EQ(q.pop_batch(out, 8).taken, 1u);
  out.clear();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(Counted::alive(), 0);
}

TEST(QueueSlots, DestroyingAQueueDestroysExactlyItsItems) {
  for (int k = 0; k <= 5; ++k) {
    Counted::reset_counts();
    int destroyed_before = 0;
    {
      rt::BoundedMpscQueue<Counted> q(8);
      for (int i = 0; i < k; ++i)
        ASSERT_EQ(q.try_push(Counted(i)), rt::QueuePush::kOk);
      ASSERT_EQ(Counted::alive(), k);
      destroyed_before = Counted::destroyed;
    }
    EXPECT_EQ(Counted::destroyed - destroyed_before, k) << "k=" << k;
    EXPECT_EQ(Counted::alive(), 0) << "k=" << k;
  }
}

TEST(QueueSlots, FifoAcrossWrapAround) {
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{3}}) {
    Counted::reset_counts();
    rt::BoundedMpscQueue<Counted> q(capacity);
    confnet::util::Rng rng(capacity);
    int next_in = 0;
    int next_out = 0;
    std::vector<Counted> out;
    for (int round = 0; round < 400; ++round) {
      const std::size_t room = capacity - q.size();
      for (u64 i = rng.below(room + 1); i > 0; --i)
        ASSERT_EQ(q.try_push(Counted(next_in++)), rt::QueuePush::kOk);
      if (q.size() == capacity) {
        EXPECT_EQ(q.try_push(Counted(-1)), rt::QueuePush::kFull);
      }
      q.pop_batch(out, 1 + rng.below(capacity));
      for (const Counted& c : out) EXPECT_EQ(c.value, next_out++);
      out.clear();
      ASSERT_EQ(Counted::alive(), static_cast<int>(q.size()))
          << "capacity " << capacity << " round " << round;
    }
    q.pop_batch(out, capacity);
    for (const Counted& c : out) EXPECT_EQ(c.value, next_out++);
    EXPECT_EQ(next_out, next_in);
    EXPECT_GT(next_out, static_cast<int>(10 * capacity))
        << "the ring must wrap many times";
  }
}

/// Push `count` items numbered from `next_in`, each pinning `token`.
void push_counted(rt::BoundedMpscQueue<Counted>& q, int count, int& next_in,
                  const std::shared_ptr<int>& token) {
  for (int i = 0; i < count; ++i)
    ASSERT_EQ(q.try_push(Counted(next_in++, token)), rt::QueuePush::kOk);
}

/// Pop up to `max` items and check they continue the FIFO sequence at
/// `next_out`; the popped copies die before this returns.
void pop_counted(rt::BoundedMpscQueue<Counted>& q, std::size_t max,
                 int& next_out) {
  std::vector<Counted> out;
  q.pop_batch(out, max);
  for (const Counted& c : out) EXPECT_EQ(c.value, next_out++);
}

/// Exactly the queued items are alive: every push built one slot value and
/// every pop destroyed one, and each item still holds its token reference.
void expect_only_queued_alive(const rt::BoundedMpscQueue<Counted>& q,
                              const std::shared_ptr<int>& token) {
  EXPECT_EQ(Counted::alive(), static_cast<int>(q.size()));
  EXPECT_EQ(token.use_count(), static_cast<long>(q.size()) + 1);
}

TEST(QueueSlots, RefillAfterDrainRunsPastTheOldTail) {
  Counted::reset_counts();
  auto token = std::make_shared<int>(0);
  rt::BoundedMpscQueue<Counted> q(4);
  int next_in = 0;
  int next_out = 0;
  push_counted(q, 3, next_in, token);
  pop_counted(q, 8, next_out);  // drained, with head and tail at slot 3
  ASSERT_EQ(q.size(), 0u);
  expect_only_queued_alive(q, token);
  push_counted(q, 4, next_in, token);  // wraps past slot 0, to the bound
  EXPECT_EQ(q.try_push(Counted(-1)), rt::QueuePush::kFull);
  expect_only_queued_alive(q, token);
  pop_counted(q, 8, next_out);
  EXPECT_EQ(next_out, 7);
  expect_only_queued_alive(q, token);
}

TEST(QueueSlots, WrapsAroundAfterAPartialDrain) {
  Counted::reset_counts();
  auto token = std::make_shared<int>(0);
  rt::BoundedMpscQueue<Counted> q(4);
  int next_in = 0;
  int next_out = 0;
  push_counted(q, 3, next_in, token);
  pop_counted(q, 2, next_out);  // one item left, in slot 2
  push_counted(q, 3, next_in, token);  // slots 3, 0 and 1
  EXPECT_EQ(q.size(), 4u);
  expect_only_queued_alive(q, token);
  pop_counted(q, 3, next_out);
  expect_only_queued_alive(q, token);
  push_counted(q, 2, next_in, token);
  pop_counted(q, 8, next_out);
  EXPECT_EQ(next_out, next_in);
  expect_only_queued_alive(q, token);
}

TEST(QueueSlots, DestroyingAWrappedQueueDestroysEachItemOnce) {
  // One token per item: an item destroyed twice, or never, leaves its
  // token's count off by one.
  Counted::reset_counts();
  std::vector<std::shared_ptr<int>> tokens;
  for (int i = 0; i < 5; ++i) tokens.push_back(std::make_shared<int>(i));
  {
    rt::BoundedMpscQueue<Counted> q(4);
    for (int i = 0; i < 3; ++i)
      ASSERT_EQ(q.try_push(Counted(i, tokens[i])), rt::QueuePush::kOk);
    int next_out = 0;
    pop_counted(q, 2, next_out);
    for (int i = 3; i < 5; ++i)  // into slots 3 and 0, past the wrap point
      ASSERT_EQ(q.try_push(Counted(i, tokens[i])), rt::QueuePush::kOk);
    ASSERT_EQ(Counted::alive(), 3);
  }
  for (const auto& token : tokens) EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(Counted::alive(), 0);
}

TEST(QueueSlots, RingGrowsOnDemandUpToTheBound) {
  for (const std::size_t capacity :
       {std::size_t{1}, std::size_t{5}, std::size_t{16}, std::size_t{17},
        std::size_t{37}, std::size_t{64}, std::size_t{256}}) {
    Counted::reset_counts();
    rt::BoundedMpscQueue<Counted> q(capacity);
    const std::size_t initial = std::min(
        capacity, rt::BoundedMpscQueue<Counted>::kInitialSlots);
    EXPECT_EQ(q.slots(), initial) << "capacity " << capacity;
    std::size_t last_slots = q.slots();
    for (std::size_t i = 0; i < capacity; ++i) {
      ASSERT_EQ(q.try_push(Counted(static_cast<int>(i))), rt::QueuePush::kOk)
          << "capacity " << capacity << " push " << i;
      const std::size_t slots = q.slots();
      EXPECT_GE(slots, q.size());
      EXPECT_LE(slots, capacity) << "capacity " << capacity;
      // The ring grows only when full, to double its size (or the bound).
      if (slots != last_slots) {
        EXPECT_EQ(i, last_slots) << "capacity " << capacity;
        EXPECT_EQ(slots, std::min(capacity, 2 * last_slots));
      }
      last_slots = slots;
    }
    // kFull comes at exactly the bound, never at the ring's size.
    EXPECT_EQ(q.size(), capacity);
    EXPECT_EQ(q.slots(), capacity);
    EXPECT_EQ(q.try_push(Counted(-1)), rt::QueuePush::kFull);
    EXPECT_EQ(q.bounced(), 1u);
    EXPECT_EQ(Counted::alive(), static_cast<int>(capacity));
  }
}

TEST(QueueSlots, FifoAcrossGrowthAtEveryHeadOffset) {
  // For every ring size the queue passes through and every head offset in
  // it: fill the ring with the head at that offset, then push past it so
  // the growth has to unroll a wrapped ring. FIFO order, the live item
  // count and the bound must all survive.
  for (const std::size_t capacity : {std::size_t{37}, std::size_t{256}}) {
    std::size_t ring = rt::BoundedMpscQueue<Counted>::kInitialSlots;
    for (;;) {
      for (std::size_t head = 0; head < ring; ++head) {
        Counted::reset_counts();
        auto token = std::make_shared<int>(0);
        rt::BoundedMpscQueue<Counted> q(capacity);
        int next_in = 0;
        int next_out = 0;
        // Grow to `ring` slots, drain, then move the head to `head`.
        push_counted(q, static_cast<int>(ring), next_in, token);
        pop_counted(q, ring, next_out);
        ASSERT_EQ(q.slots(), ring);
        const std::size_t offset = (head + ring - next_in % ring) % ring;
        push_counted(q, static_cast<int>(offset), next_in, token);
        pop_counted(q, offset, next_out);
        ASSERT_EQ(q.size(), 0u);
        // Fill the ring exactly, then push to the bound through growth.
        push_counted(q, static_cast<int>(ring), next_in, token);
        ASSERT_EQ(q.slots(), ring) << "capacity " << capacity << " head "
                                   << head;
        push_counted(q, static_cast<int>(capacity - ring), next_in, token);
        EXPECT_EQ(q.slots(), capacity);
        EXPECT_EQ(q.try_push(Counted(-1, token)), rt::QueuePush::kFull);
        expect_only_queued_alive(q, token);
        // Drain in uneven bursts across the new wrap point.
        while (q.size() > 0) pop_counted(q, 1 + q.size() / 3, next_out);
        EXPECT_EQ(next_out, next_in)
            << "capacity " << capacity << " ring " << ring << " head "
            << head;
        expect_only_queued_alive(q, token);
      }
      if (ring == capacity) break;
      ring = std::min(capacity, 2 * ring);
    }
  }
}

TEST(QueueSlots, PushWaitBlocksAtTheBoundOfAGrownRing) {
  constexpr std::size_t kCapacity = 37;
  rt::BoundedMpscQueue<Counted> q(kCapacity);
  for (int i = 0; i < static_cast<int>(kCapacity); ++i)
    ASSERT_EQ(q.push_wait(Counted(i)), rt::QueuePush::kOk);
  ASSERT_EQ(q.slots(), kCapacity);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_EQ(q.push_wait(Counted(99)), rt::QueuePush::kOk);
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load()) << "push_wait must block at the bound";
  std::vector<Counted> out;
  ASSERT_EQ(q.pop_batch(out, 1).taken, 1u);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.size(), kCapacity);
  EXPECT_EQ(q.slots(), kCapacity);
}

TEST(QueueSlots, CloseAndDestroyAGrownRingDestroyOnlyQueuedItems) {
  // One token per item: an item destroyed twice, or never, leaves its
  // token's count off by one.
  Counted::reset_counts();
  std::vector<std::shared_ptr<int>> tokens;
  for (int i = 0; i < 40; ++i) tokens.push_back(std::make_shared<int>(i));
  {
    rt::BoundedMpscQueue<Counted> q(37);
    for (int i = 0; i < 10; ++i)  // head at slot 6 of the 16-slot ring
      ASSERT_EQ(q.try_push(Counted(i, tokens[i])), rt::QueuePush::kOk);
    int next_out = 0;
    pop_counted(q, 6, next_out);
    for (int i = 10; i < 35; ++i)  // wraps, then grows twice
      ASSERT_EQ(q.try_push(Counted(i, tokens[i])), rt::QueuePush::kOk);
    ASSERT_EQ(q.slots(), 32u);
    ASSERT_EQ(Counted::alive(), 29);
    q.close();
    // A refused push leaves the item with its caller.
    Counted refused(35, tokens[35]);
    EXPECT_EQ(q.try_push(std::move(refused)), rt::QueuePush::kClosed);
    EXPECT_EQ(q.push_wait(std::move(refused)), rt::QueuePush::kClosed);
    EXPECT_EQ(tokens[35].use_count(), 2);
    // close() destroys nothing; what was queued still drains in order.
    EXPECT_EQ(Counted::alive(), 30);
    pop_counted(q, 4, next_out);
    EXPECT_EQ(next_out, 10);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(tokens[i].use_count(), 1);
    for (int i = 10; i < 35; ++i) EXPECT_EQ(tokens[i].use_count(), 2);
  }
  // Destruction released each of the 25 still-queued items exactly once.
  for (const auto& token : tokens) EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(Counted::alive(), 0);
}

TEST(Runtime, BouncedSubmitsAreCountedOnceAcrossRetry) {
  // Regression: a command that bounces off a full queue and is later
  // resubmitted must contribute exactly once to the pushed()-derived stats
  // (completed / submitted watermark). The bounces themselves are tracked
  // separately in submit_bounced.
  rt::RuntimeConfig cfg = small_config(1, 1);
  cfg.shard.queue_depth = 4;
  rt::Runtime r(cfg);

  std::atomic<int> completions{0};
  for (int i = 0; i < 4; ++i) {
    rt::Command c = open_cmd(2);
    c.done = [&](rt::CommandResult&&) { completions.fetch_add(1); };
    ASSERT_EQ(r.shard(0).submit(std::move(c)), rt::SubmitStatus::kAccepted);
  }
  rt::Command extra = open_cmd(2);
  extra.done = [&](rt::CommandResult&&) { completions.fetch_add(1); };
  EXPECT_EQ(r.shard(0).submit(std::move(extra)),
            rt::SubmitStatus::kQueueFull);
  EXPECT_EQ(r.shard(0).submit(std::move(extra)),
            rt::SubmitStatus::kQueueFull)
      << "a second attempt against the still-full queue bounces again";
  EXPECT_EQ(r.snapshot().total.submit_bounced, 2u);

  r.start();
  r.drain();
  EXPECT_EQ(r.submit_to_blocking(0, std::move(extra)),
            rt::SubmitStatus::kAccepted);
  r.drain();
  r.stop();

  EXPECT_EQ(completions.load(), 5);
  const rt::RuntimeSnapshot snap = r.snapshot();
  EXPECT_EQ(snap.total.completed, 5u)
      << "the retried command must count once, not once per bounce";
  EXPECT_EQ(snap.total.opens, 5u);
  EXPECT_EQ(snap.total.submit_bounced, 2u);
  EXPECT_EQ(r.submitted(), 5u);
  for (const rt::ShardStats& s : snap.shards) EXPECT_TRUE(s.consistent());
}

// ---------------------------------------------------------------------------
// Pooled completions and staged bursts (the lock-lean producer path).
// ---------------------------------------------------------------------------

TEST(Runtime, PooledCallsRoundTripAndRecycleSlots) {
  rt::Runtime r(small_config(2, 1));
  r.start();

  // Open/close round trip through pooled handles.
  auto opened = r.call_pooled(0, open_cmd(3)).take();
  ASSERT_EQ(opened.status, rt::CommandStatus::kDone);
  ASSERT_TRUE(opened.open.session.has_value());
  rt::Command close;
  close.kind = rt::CommandKind::kClose;
  close.session = *opened.open.session;
  EXPECT_TRUE(r.call_pooled(0, std::move(close)).take().ok);

  // A sequential open/close churn keeps exactly one slot in flight — the
  // pool must not grow past the concurrency high-water mark.
  const std::size_t before = r.pooled_slots();
  for (int i = 0; i < 200; ++i) {
    auto res = r.call_pooled(i % 2, open_cmd(2)).take();
    if (res.open.session) {
      rt::Command c;
      c.kind = rt::CommandKind::kClose;
      c.session = *res.open.session;
      (void)r.call_pooled(i % 2, std::move(c)).take();
    }
  }
  EXPECT_EQ(r.pooled_slots(), before)
      << "steady-state pooled churn must recycle, never grow the arena";

  // An abandoned handle settles instead of leaking or racing: the dtor
  // waits for the in-flight fulfill, then recycles the slot.
  { auto dropped = r.call_pooled(0, open_cmd(2)); }
  r.drain();
  EXPECT_EQ(r.pooled_slots(), before);
  r.stop();

  // Post-stop pooled calls complete inline with kRejectedStopped.
  EXPECT_EQ(r.call_pooled(0, open_cmd(2)).take().status,
            rt::CommandStatus::kRejectedStopped);
}

TEST(Runtime, StagedBurstFlushesEveryCommandInOrder) {
  rt::RuntimeConfig cfg = small_config(4, 2);
  rt::Runtime r(cfg);
  r.start();

  rt::CommandStage stage;
  std::vector<rt::PooledResult> pending;
  for (u32 s = 0; s < 4; ++s)
    for (int i = 0; i < 8; ++i)
      pending.push_back(r.stage_call(stage, s, open_cmd(2)));
  EXPECT_EQ(stage.size(), 32u);
  ASSERT_EQ(r.submit_stage(stage), rt::SubmitStatus::kAccepted);
  EXPECT_TRUE(stage.empty()) << "a flushed stage must be left empty";

  u32 served = 0;
  for (auto& p : pending) {
    const auto res = p.take();
    EXPECT_EQ(res.status, rt::CommandStatus::kDone);
    if (res.open.session) ++served;
  }
  EXPECT_GE(served, 8u);
  r.drain();
  EXPECT_EQ(r.snapshot().total.completed, 32u);

  // A stage flushed into a stopped runtime reports kStopped and every
  // pooled handle still completes inline.
  r.stop();
  pending.clear();
  rt::CommandStage late;
  pending.push_back(r.stage_call(late, 0, open_cmd(2)));
  EXPECT_EQ(r.submit_stage(late), rt::SubmitStatus::kStopped);
  EXPECT_EQ(pending.front().take().status,
            rt::CommandStatus::kRejectedStopped);
}

TEST(Runtime, StagedBurstSurvivesTinyQueues) {
  // Burst wider than the queue: submit_stage must wake the owning worker
  // mid-flush and block for space instead of deadlocking against its own
  // deferred wakeup.
  rt::RuntimeConfig cfg = small_config(1, 1);
  cfg.shard.queue_depth = 4;
  rt::Runtime r(cfg);
  r.start();

  rt::CommandStage stage;
  std::vector<rt::PooledResult> pending;
  for (int i = 0; i < 64; ++i)
    pending.push_back(r.stage_call(stage, 0, open_cmd(2)));
  ASSERT_EQ(r.submit_stage(stage), rt::SubmitStatus::kAccepted);
  for (auto& p : pending)
    EXPECT_EQ(p.take().status, rt::CommandStatus::kDone);
  r.stop();
  EXPECT_EQ(r.snapshot().total.completed, 64u);
}

TEST(Runtime, StopDrainsInFlightBatchesExactlyOnce) {
  // Stop immediately after a burst of submits: every accepted command must
  // still be applied (drain-on-stop), and each completion runs exactly once.
  // Every fifth submit is a staged burst of two opens instead.
  rt::RuntimeConfig cfg = small_config(4, 2);
  cfg.shard.queue_depth = 512;
  rt::Runtime r(cfg);
  r.start();

  std::atomic<int> completions{0};
  rt::CommandStage stage;
  std::vector<rt::PooledResult> staged;
  constexpr int kPerShard = 100;
  for (u32 s = 0; s < 4; ++s) {
    for (int i = 0; i < kPerShard; ++i) {
      if (i % 5 == 4) {
        staged.push_back(r.stage_call(stage, s, open_cmd(3)));
        staged.push_back(r.stage_call(stage, s, open_cmd(2)));
        ASSERT_EQ(r.submit_stage(stage), rt::SubmitStatus::kAccepted);
        continue;
      }
      rt::Command c =
          open_cmd(2 + static_cast<u32>(i % 3));
      c.done = [&](rt::CommandResult&& result) {
        EXPECT_EQ(result.status, rt::CommandStatus::kDone);
        completions.fetch_add(1);
      };
      ASSERT_EQ(r.submit_to_blocking(s, std::move(c)),
                rt::SubmitStatus::kAccepted);
    }
  }
  r.stop();  // no drain() first — stop itself must finish the backlog

  constexpr int kBursts = kPerShard / 5;
  EXPECT_EQ(completions.load(), 4 * (kPerShard - kBursts));
  ASSERT_EQ(staged.size(), static_cast<std::size_t>(4 * 2 * kBursts));
  for (auto& p : staged) EXPECT_EQ(p.take().status, rt::CommandStatus::kDone);
  const rt::RuntimeSnapshot snap = r.snapshot();
  EXPECT_EQ(snap.total.completed, static_cast<u64>(4 * (kPerShard + kBursts)));
  EXPECT_EQ(snap.total.rejected_stopped, 0u);
}

TEST(Runtime, PostStopCommandsAreRejectedNotLost) {
  rt::Runtime r(small_config(2, 1));
  r.start();
  r.stop();

  bool completed = false;
  rt::Command c = open_cmd(3);
  c.done = [&](rt::CommandResult&& result) {
    completed = true;
    EXPECT_EQ(result.status, rt::CommandStatus::kRejectedStopped);
    EXPECT_EQ(result.kind, rt::CommandKind::kOpen);
  };
  EXPECT_EQ(r.submit_to_blocking(0, std::move(c)), rt::SubmitStatus::kStopped);
  EXPECT_TRUE(completed);  // inline, on this thread

  // Pooled handles complete too — nothing hangs.
  EXPECT_EQ(r.call_pooled(1, open_cmd(2)).take().status,
            rt::CommandStatus::kRejectedStopped);

  const rt::RuntimeSnapshot snap = r.snapshot();
  EXPECT_EQ(snap.total.rejected_stopped, 2u);
  EXPECT_EQ(snap.total.opens, 0u);  // never applied
}

TEST(Runtime, NeverStartedRuntimeRejectsAfterStop) {
  rt::Runtime r(small_config(1, 1));
  r.stop();
  EXPECT_EQ(r.submit_to_blocking(0, open_cmd(2)), rt::SubmitStatus::kStopped);
}

// ---------------------------------------------------------------------------
// Snapshot consistency.
// ---------------------------------------------------------------------------

TEST(Runtime, SnapshotsAreConsistentWhileChurning) {
  rt::RuntimeConfig cfg = small_config(4, 2);
  rt::Runtime r(cfg);
  r.start();

  std::atomic<bool> go{true};
  std::thread pounder([&] {
    confnet::util::Rng rng(7);
    while (go.load()) {
      for (u32 s = 0; s < 4; ++s) {
        rt::Command c = open_cmd(2 + static_cast<u32>(rng.below(4)));
        (void)r.submit_to_blocking(s, std::move(c));
      }
    }
  });

  // Every published per-shard snapshot must satisfy the burst-boundary
  // identities even while commands are in flight.
  for (int round = 0; round < 200; ++round) {
    const rt::RuntimeSnapshot snap = r.snapshot();
    for (const rt::ShardStats& s : snap.shards) {
      EXPECT_TRUE(s.consistent())
          << "opens=" << s.opens << " accepted=" << s.accepted
          << " queued=" << s.queued << " rejected=" << s.rejected
          << " completed=" << s.completed << " max_burst=" << s.max_burst
          << " interrupted=" << s.recovery.sessions_interrupted;
    }
  }
  go.store(false);
  pounder.join();
  r.stop();

  const rt::RuntimeSnapshot final_snap = r.snapshot();
  for (const rt::ShardStats& s : final_snap.shards)
    EXPECT_TRUE(s.consistent());
  EXPECT_EQ(final_snap.total.completed, r.submitted());
}

// ---------------------------------------------------------------------------
// Faults through the runtime.
// ---------------------------------------------------------------------------

TEST(Runtime, FailAndRepairLinkRunRecovery) {
  rt::RuntimeConfig cfg = small_config(1, 1);
  rt::Runtime r(cfg);
  r.start();

  // Load the shard so some sessions cross interstage links.
  int accepted = 0;
  for (int i = 0; i < 12; ++i) {
    auto result = r.call_pooled(0, open_cmd(2)).take();
    if (result.open.outcome == conf::RequestOutcome::kServed) ++accepted;
  }
  ASSERT_GT(accepted, 0);

  rt::Command fail;
  fail.kind = rt::CommandKind::kFailLink;
  fail.level = 1;
  fail.row = 0;
  auto failed = r.call_pooled(0, std::move(fail)).take();
  EXPECT_TRUE(failed.ok);

  // Failing the same link again is an idempotent no-op.
  rt::Command again;
  again.kind = rt::CommandKind::kFailLink;
  again.level = 1;
  again.row = 0;
  EXPECT_FALSE(r.call_pooled(0, std::move(again)).take().ok);

  rt::Command repair;
  repair.kind = rt::CommandKind::kRepairLink;
  repair.level = 1;
  repair.row = 0;
  EXPECT_TRUE(r.call_pooled(0, std::move(repair)).take().ok);

  r.stop();
  const rt::ShardStats s = r.shard(0).snapshot();
  EXPECT_EQ(s.recovery.link_failures, 1u);
  EXPECT_EQ(s.recovery.link_repairs, 1u);
  EXPECT_TRUE(s.consistent());
  // Conservation: every interrupted session was recovered, dropped by the
  // shutdown retry flush, or is still queued waiting for capacity (the
  // fabric stayed full, so a victim can legitimately wait forever).
  EXPECT_EQ(s.recovery.recovered() + s.recovery.dropped + s.recovery.expired +
                r.shard(0).recovery().pending(),
            s.recovery.sessions_interrupted);
}

// The published recovery counters are a copy of the shard's
// ControlPlane, never a second tally. Both tests drive a Shard
// serially on the test thread: a loss system (no hold queue) packed with
// pairs, then a link failure whose victims cannot be repacked, so at least
// one victim is left on the backoff-retry path.

rt::ShardConfig serial_recovery_config() {
  rt::ShardConfig cfg;
  cfg.stages = 3;  // 8 ports
  cfg.wait_capacity = 0;
  cfg.seed = 42;
  return cfg;
}

/// Apply `cmd` on the calling thread and return its result.
rt::CommandResult apply_serially(rt::Shard& shard, rt::Command cmd) {
  rt::CommandResult out;
  cmd.done = [&out](rt::CommandResult&& r) { out = std::move(r); };
  EXPECT_EQ(shard.submit(std::move(cmd)), rt::SubmitStatus::kAccepted);
  EXPECT_EQ(shard.process_available(), 1u);
  return out;
}

/// Open eight pairs, then fail interstage links in (level,row) order until
/// one leaves a victim pending a backoff retry. Returns that victim's id.
u32 fail_until_retry_pending(rt::Shard& shard) {
  for (int i = 0; i < 8; ++i) (void)apply_serially(shard, open_cmd(2));
  for (u32 level = 0; level < 3; ++level) {
    for (u32 row = 0; row < shard.ports(); ++row) {
      rt::Command fail;
      fail.kind = rt::CommandKind::kFailLink;
      fail.level = level;
      fail.row = row;
      const rt::CommandResult r = apply_serially(shard, std::move(fail));
      // torn_sessions lists only victims not live at completion; with a
      // retry budget and no hold queue, each of them is on the agenda.
      if (!r.torn_sessions.empty() && shard.recovery().pending() > 0)
        return r.torn_sessions.front();
    }
  }
  ADD_FAILURE() << "no link failure left a victim pending a retry";
  return 0;
}

void expect_recovery_equal(const conf::RecoveryStats& published,
                           const conf::RecoveryStats& owner) {
  EXPECT_EQ(published.link_failures, owner.link_failures);
  EXPECT_EQ(published.link_repairs, owner.link_repairs);
  EXPECT_EQ(published.sessions_interrupted, owner.sessions_interrupted);
  EXPECT_EQ(published.recovered_inplace, owner.recovered_inplace);
  EXPECT_EQ(published.recovered_after_wait, owner.recovered_after_wait);
  EXPECT_EQ(published.recovered_after_retry, owner.recovered_after_retry);
  EXPECT_EQ(published.retries, owner.retries);
  EXPECT_EQ(published.dropped, owner.dropped);
  EXPECT_EQ(published.expired, owner.expired);
}

TEST(Runtime, ClosingAPendingVictimCountsOneExpiry) {
  rt::Shard shard(0, serial_recovery_config());
  const u32 victim = fail_until_retry_pending(shard);
  ASSERT_GT(shard.recovery().pending(), 0u);
  const u64 pending_before = shard.recovery().pending();

  // Closing the victim cancels its pending recovery; the retry still on the
  // shard's schedule then fires against a departed origin and must not be
  // counted a second time. No-op commands advance logical time past the
  // longest backoff so that retry is sure to have fired.
  rt::Command close;
  close.kind = rt::CommandKind::kClose;
  close.session = victim;
  EXPECT_FALSE(apply_serially(shard, std::move(close)).ok);
  for (int i = 0; i < 8; ++i) {
    rt::Command noop;
    noop.kind = rt::CommandKind::kClose;
    noop.session = 1u << 30;  // no such session
    (void)apply_serially(shard, std::move(noop));
  }

  const rt::ShardStats s = shard.snapshot();
  const conf::RecoveryStats& owner = shard.recovery().stats();
  expect_recovery_equal(s.recovery, owner);
  EXPECT_EQ(s.recovery.expired, 1u);
  EXPECT_EQ(shard.recovery().pending(), pending_before - 1);
  EXPECT_TRUE(s.consistent());
  EXPECT_EQ(s.recovery.recovered() + s.recovery.dropped + s.recovery.expired +
                shard.recovery().pending(),
            s.recovery.sessions_interrupted);
}

TEST(Runtime, VictimDroppedWithoutRetryBudgetIsCounted) {
  rt::ShardConfig cfg = serial_recovery_config();
  cfg.recovery.max_retries = 0;
  rt::Shard shard(0, cfg);
  for (int i = 0; i < 8; ++i) (void)apply_serially(shard, open_cmd(2));

  // With no retry budget a victim that cannot be repacked at once is
  // dropped inside the fail_link command itself.
  for (u32 row = 0; row < shard.ports(); ++row) {
    rt::Command fail;
    fail.kind = rt::CommandKind::kFailLink;
    fail.level = 0;
    fail.row = row;
    (void)apply_serially(shard, std::move(fail));
    if (shard.recovery().stats().dropped > 0) break;
  }
  const conf::RecoveryStats& owner = shard.recovery().stats();
  ASSERT_GT(owner.dropped, 0u);

  const rt::ShardStats s = shard.snapshot();
  expect_recovery_equal(s.recovery, owner);
  EXPECT_EQ(shard.recovery().pending(), 0u);
  EXPECT_EQ(s.recovery.recovered() + s.recovery.dropped + s.recovery.expired,
            s.recovery.sessions_interrupted);
}

// Every session the shard brings back — in place, after a wait, on a
// backoff retry or through the drain after a failure — is live again under
// the id the caller already holds. A caller that closes each id it was
// given once therefore leaves nothing open and nothing pending.

/// The session ids a caller holds: exactly the ids of its served opens and
/// served tickets. Fault victims keep theirs, so no result rewrites one.
struct CallerLedger {
  std::set<u32> held;

  rt::CommandResult apply(rt::Shard& shard, rt::Command cmd) {
    const bool closing = cmd.kind == rt::CommandKind::kClose;
    const u32 session = cmd.session;
    rt::CommandResult r = apply_serially(shard, std::move(cmd));
    if (closing) held.erase(session);
    if (r.open.outcome == conf::RequestOutcome::kServed) {
      EXPECT_TRUE(held.insert(*r.open.session).second);
    }
    for (u32 torn : r.torn_sessions) EXPECT_EQ(held.count(torn), 1u);
    for (const auto& ticket : r.served)
      EXPECT_TRUE(held.insert(ticket.session).second);
    return r;
  }

  rt::CommandResult link(rt::Shard& shard, rt::CommandKind kind, u32 level,
                         u32 row) {
    rt::Command cmd;
    cmd.kind = kind;
    cmd.level = level;
    cmd.row = row;
    return apply(shard, std::move(cmd));
  }

  /// Close each held id once: a live one closes, one still pending
  /// recovery expires, and a dropped one is a no-op.
  void close_all(rt::Shard& shard) {
    while (!held.empty()) {
      rt::Command close;
      close.kind = rt::CommandKind::kClose;
      close.session = *held.begin();
      (void)apply(shard, std::move(close));
    }
  }

  void expect_nothing_orphaned(const rt::Shard& shard) const {
    EXPECT_EQ(shard.wait().sessions().active_sessions(), 0u);
    EXPECT_EQ(shard.recovery().pending(), 0u);
  }
};

/// Eight ports under the buddy placer, with a hold queue:
/// A={0,1}, B={2,3}, C={4,5,6,7}. Failing (0,0) interrupts A, whose only
/// free block is dead, so A waits in the queue.
struct QueuedVictim {
  rt::Shard shard{0, config()};
  CallerLedger caller;
  u32 a = 0;
  u32 c = 0;

  static rt::ShardConfig config() {
    rt::ShardConfig cfg = serial_recovery_config();
    cfg.wait_capacity = 4;
    cfg.policy = conf::PlacementPolicy::kBuddy;
    return cfg;
  }

  QueuedVictim() {
    for (u32 size : {2u, 2u, 4u})
      c = *caller.apply(shard, open_cmd(size)).open.session;
    a = *caller.held.begin();
    const auto failed = caller.link(shard, rt::CommandKind::kFailLink, 0, 0);
    EXPECT_EQ(failed.torn_sessions, std::vector<u32>{a});
    EXPECT_EQ(shard.recovery().pending(), 1u);
    EXPECT_EQ(shard.wait().queue_length(), 1u);
  }
};

void retry_recovery_reaches_caller() {
  rt::Shard shard(0, serial_recovery_config());
  CallerLedger caller;
  for (int i = 0; i < 8; ++i) (void)caller.apply(shard, open_cmd(2));
  // Fail injection links until a victim is left on the retry agenda, then
  // repair them all so its retry finds its old block free.
  u32 failed = 0;
  while (shard.recovery().pending() == 0 && failed < shard.ports())
    (void)caller.link(shard, rt::CommandKind::kFailLink, 0, failed++);
  ASSERT_GT(shard.recovery().pending(), 0u);
  for (u32 row = 0; row < failed; ++row)
    (void)caller.link(shard, rt::CommandKind::kRepairLink, 0, row);
  for (int i = 0; i < 16 && shard.recovery().pending() > 0; ++i)
    (void)caller.link(shard, rt::CommandKind::kRepairLink, 0, 0);  // no-op
  ASSERT_GT(shard.recovery().stats().recovered_after_retry, 0u);
  caller.close_all(shard);
  caller.expect_nothing_orphaned(shard);
}

void close_recovery_reaches_caller() {
  QueuedVictim t;
  rt::Command close;
  close.kind = rt::CommandKind::kClose;
  close.session = t.c;
  (void)t.caller.apply(t.shard, std::move(close));
  EXPECT_EQ(t.shard.recovery().stats().recovered_after_wait, 1u);
  EXPECT_TRUE(t.shard.wait().sessions().contains(t.a));
  t.caller.close_all(t.shard);
  t.caller.expect_nothing_orphaned(t.shard);
}

void drain_recovery_reaches_caller() {
  // A link only C's four-member tree crosses: C's teardown frees room, C
  // queues behind A, and the drain after the failure serves A there.
  u32 scenarios = 0;
  for (u32 level = 1; level < 3; ++level) {
    for (u32 row = 0; row < 8; ++row) {
      QueuedVictim t;
      const auto r =
          t.caller.link(t.shard, rt::CommandKind::kFailLink, level, row);
      if (r.torn_sessions != std::vector<u32>{t.c}) continue;
      ++scenarios;
      EXPECT_EQ(t.shard.recovery().stats().recovered_after_wait, 1u);
      EXPECT_TRUE(t.shard.wait().sessions().contains(t.a));
      t.caller.close_all(t.shard);
      t.caller.expect_nothing_orphaned(t.shard);
    }
  }
  EXPECT_GT(scenarios, 0u);
}

TEST(Runtime, EveryRecoveryReachesTheCaller) {
  {
    SCOPED_TRACE("backoff retry");
    retry_recovery_reaches_caller();
  }
  {
    SCOPED_TRACE("close serves a queued victim");
    close_recovery_reaches_caller();
  }
  {
    SCOPED_TRACE("post-fail drain");
    drain_recovery_reaches_caller();
  }
}

// ---------------------------------------------------------------------------
// Determinism across worker counts.
// ---------------------------------------------------------------------------

struct Outcome {
  conf::RequestOutcome outcome;
  u32 session;  // 0 when not served
  bool operator==(const Outcome&) const = default;
};

// Scripted per-shard workload: open sizes from a seeded RNG, closing the
// oldest open session every third command. Returns the outcome sequence.
std::vector<Outcome> run_scripted(rt::Runtime& r, u32 shard, u64 seed,
                                  int commands) {
  confnet::util::Rng script(seed);
  std::vector<Outcome> outcomes;
  std::vector<u32> live;
  for (int i = 0; i < commands; ++i) {
    if (i % 3 == 2 && !live.empty()) {
      rt::Command c;
      c.kind = rt::CommandKind::kClose;
      c.session = live.front();
      live.erase(live.begin());
      (void)r.call_pooled(shard, std::move(c)).take();
      continue;
    }
    const u32 size = 2 + static_cast<u32>(script.below(5));
    auto result = r.call_pooled(shard, open_cmd(size)).take();
    Outcome o{result.open.outcome, result.open.session.value_or(0)};
    if (result.open.session) live.push_back(*result.open.session);
    outcomes.push_back(o);
  }
  return outcomes;
}

TEST(Runtime, OutcomesIndependentOfWorkerCount) {
  constexpr int kCommands = 120;
  std::vector<std::vector<Outcome>> per_worker_runs;
  std::vector<rt::ShardStats> totals;
  for (u32 workers : {1u, 2u, 4u}) {
    rt::Runtime r(small_config(4, workers));
    r.start();
    std::vector<Outcome> all;
    for (u32 s = 0; s < 4; ++s) {
      auto outcomes = run_scripted(r, s, 1000 + s, kCommands);
      all.insert(all.end(), outcomes.begin(), outcomes.end());
    }
    r.stop();
    per_worker_runs.push_back(std::move(all));
    totals.push_back(r.snapshot().total);
  }
  EXPECT_EQ(per_worker_runs[0], per_worker_runs[1]);
  EXPECT_EQ(per_worker_runs[0], per_worker_runs[2]);
  EXPECT_EQ(totals[0].accepted, totals[1].accepted);
  EXPECT_EQ(totals[0].accepted, totals[2].accepted);
  EXPECT_EQ(totals[0].rejected, totals[2].rejected);
}

TEST(Runtime, ShardMatchesSerialWaitQueueOracle) {
  // The runtime's per-shard outcomes must equal a serial WaitQueueManager
  // fed the same command sequence with the same seed — the runtime adds
  // threading, never different admission decisions.
  rt::RuntimeConfig cfg = small_config(1, 1);
  rt::Runtime r(cfg);
  r.start();
  auto runtime_outcomes = run_scripted(r, 0, 555, 90);
  r.stop();

  conf::DirectConferenceNetwork net(
      cfg.shard.kind, cfg.shard.stages,
      conf::DilationProfile::uniform(cfg.shard.stages, 1));
  conf::WaitQueueManager oracle(net, cfg.shard.policy,
                                cfg.shard.wait_capacity,
                                cfg.shard.wait_bypass, cfg.shard.backend);
  confnet::util::Rng rng(cfg.shard.seed + 0);  // shard 0's seed
  confnet::util::Rng script(555);
  std::vector<Outcome> oracle_outcomes;
  std::vector<u32> live;
  for (int i = 0; i < 90; ++i) {
    if (i % 3 == 2 && !live.empty()) {
      (void)oracle.close(live.front(), rng);
      live.erase(live.begin());
      continue;
    }
    const u32 size = 2 + static_cast<u32>(script.below(5));
    const auto result = oracle.request(size, rng);
    Outcome o{result.outcome,
              result.session ? *result.session : 0};
    if (result.session) live.push_back(*result.session);
    oracle_outcomes.push_back(o);
  }
  EXPECT_EQ(runtime_outcomes, oracle_outcomes);
}

// ---------------------------------------------------------------------------
// One tally per event: the registry sees each stats struct once, when its
// owner is destroyed, and the shard's only trace path is the global tracer.
// ---------------------------------------------------------------------------

TEST(Runtime, RegistryMovesOnlyWhenTheShardsAreDestroyed) {
  obs::Counter& attempts =
      obs::Registry::global().counter("conf", "open_attempts");
  const u64 before = attempts.value();

  rt::RuntimeConfig cfg = small_config(2, 2);
  cfg.shard.wait_capacity = 0;  // loss mode: one open attempt per open
  auto r = std::make_unique<rt::Runtime>(cfg);
  r->start();
  for (u32 s = 0; s < 2; ++s)
    for (int i = 0; i < 12; ++i) (void)r->call_pooled(s, open_cmd(3)).take();
  r->drain();
  // The per-command path never touches a global.
  EXPECT_EQ(attempts.value(), before);

  const u64 opens = r->snapshot().total.opens;
  EXPECT_EQ(opens, 24u);
  r.reset();
  EXPECT_EQ(attempts.value(), before + opens);
}

/// One registry counter the conference layer folds, and the value the
/// control plane's stats structs hold for it.
struct Folded {
  const char* subsystem;
  const char* name;
  u64 value;
};

std::vector<Folded> folded_counts(const conf::ControlPlane& plane) {
  const conf::SessionStats& s = plane.wait().sessions().stats();
  const conf::WaitStats& w = plane.wait().wait_stats();
  const conf::RecoveryStats& r = plane.stats();
  return {
      {"conf", "open_attempts", s.attempts},
      {"conf", "open_accepted", s.accepted},
      {"conf", "open_repacked", s.repacked},
      {"conf", "open_shared", s.shared},
      {"conf", "blocked_placement", s.blocked_placement},
      {"conf", "blocked_capacity", s.blocked_capacity},
      {"conf", "blocked_fault", s.blocked_fault},
      {"conf", "interrupted", s.interrupted},
      {"conf", "closes", s.closes},
      {"conf", "joins", s.joins},
      {"conf", "joins_blocked", s.joins_blocked},
      {"conf", "joins_blocked_fault", s.joins_blocked_fault},
      {"conf", "leaves", s.leaves},
      {"conf", "wait_served_immediately", w.served_immediately},
      {"conf", "wait_served_after_wait", w.served_after_wait},
      {"conf", "wait_rejected", w.rejected},
      {"conf", "wait_abandoned", w.abandoned},
      {"fault", "link_failures", r.link_failures},
      {"fault", "link_repairs", r.link_repairs},
      {"conf", "recovery_interrupted", r.sessions_interrupted},
      {"conf", "recovery_recovered", r.recovered()},
      {"conf", "recovery_retries", r.retries},
      {"conf", "recovery_dropped", r.dropped},
      {"conf", "recovery_expired", r.expired},
  };
}

u64 registry_value(const Folded& f) {
  return obs::Registry::global().counter(f.subsystem, f.name).value();
}

TEST(RegistryFold, ControlPlanesFoldEveryCounterOnceOnDestruction) {
  using confnet::min::Kind;
  std::vector<u64> before;
  std::vector<u64> expected;
  std::vector<Folded> totals;
  {
    // A: a victim waits in the queue and returns when a departure frees a
    // healthy block; the link is then repaired.
    conf::DirectConferenceNetwork net_a(Kind::kOmega, 3,
                                        conf::DilationProfile::full(3));
    conf::ControlPlane a(net_a, conf::RecoveryPolicy{},
                         conf::PlacementPolicy::kBuddy, 4);
    // B: a loss system with two victims on the retry agenda; one departs
    // while pending, the other exhausts its retry budget.
    conf::DirectConferenceNetwork net_b(Kind::kOmega, 2,
                                        conf::DilationProfile::full(2));
    conf::ControlPlane b(net_b, conf::RecoveryPolicy{},
                         conf::PlacementPolicy::kBuddy, 0);

    for (const Folded& f : folded_counts(a))
      before.push_back(registry_value(f));

    confnet::util::Rng rng(6);
    (void)a.wait().request(2, rng);
    const auto kept = a.wait().request(2, rng);
    const auto departs = a.wait().request(4, rng);
    ASSERT_TRUE(kept.session && departs.session);
    (void)a.fail_link(0, 0, 2.0, rng);
    (void)a.close(*departs.session, rng);
    (void)a.repair_link(0, 0, rng);
    (void)a.wait().sessions().join(*kept.session, rng);

    const u32 first = *b.wait().request(2, rng).session;
    const u32 second = *b.wait().request(2, rng).session;
    (void)b.fail_link(0, 0, 1.0, rng);
    (void)b.fail_link(0, 2, 1.0, rng);
    (void)b.close(second, rng);  // cancels its pending recovery
    (void)b.run_due(std::numeric_limits<double>::infinity(), rng);
    (void)first;

    const std::vector<Folded> fa = folded_counts(a);
    const std::vector<Folded> fb = folded_counts(b);
    for (std::size_t i = 0; i < fa.size(); ++i) {
      // Nothing reaches the registry while the control planes live.
      EXPECT_EQ(registry_value(fa[i]), before[i]) << fa[i].name;
      totals.push_back(
          {fa[i].subsystem, fa[i].name, fa[i].value + fb[i].value});
      expected.push_back(before[i] + totals.back().value);
    }
  }
  for (std::size_t i = 0; i < totals.size(); ++i)
    EXPECT_EQ(registry_value(totals[i]), expected[i]) << totals[i].name;

  // The scenario reaches every recovery outcome the fold carries.
  const auto total_of = [&totals](std::string_view name) {
    for (const Folded& f : totals)
      if (name == f.name) return f.value;
    return u64{0};
  };
  EXPECT_EQ(total_of("link_failures"), 3u);
  EXPECT_EQ(total_of("link_repairs"), 1u);
  EXPECT_EQ(total_of("recovery_recovered"), 1u);
  EXPECT_EQ(total_of("recovery_expired"), 1u);
  EXPECT_EQ(total_of("recovery_dropped"), 1u);
  EXPECT_GT(total_of("recovery_retries"), 0u);
  EXPECT_GT(total_of("wait_rejected"), 0u);
}

TEST(Runtime, EveryCommandLeavesOneGlobalTraceRecord) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable(1024);
  {
    rt::Runtime r(small_config(2, 1));
    r.start();
    for (u32 s = 0; s < 2; ++s)
      for (int i = 0; i < 5; ++i) (void)r.call_pooled(s, open_cmd(2)).take();
    r.stop();
  }
  std::ostringstream os;
  tracer.dump_jsonl(os);
  tracer.disable();

  const std::string out = os.str();
  const std::string tag = "\"cat\":\"runtime\"";
  std::size_t records = 0;
  for (std::size_t at = out.find(tag); at != std::string::npos;
       at = out.find(tag, at + tag.size()))
    ++records;
  EXPECT_EQ(records, 10u);  // 10 commands, one record each
}

}  // namespace
