// Functional tests of the concurrent admission runtime: command routing,
// the bounded-queue edge cases (backpressure, bounce-once accounting
// across retries, drain-on-stop with in-flight batches, post-stop
// rejection), queue-slot lifetimes (a slot holds a value only while it is
// queued), the lock-lean producer path (pooled completions that
// recycle their slots, staged bursts with one wake per flush, tiny-queue
// flushes that must not self-deadlock), cross-shard snapshot consistency,
// fault commands, and the worker-count determinism contract (per-shard
// outcomes depend only on the per-shard command sequence and seed, never
// on how shards are packed onto worker threads).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "conference/designs.hpp"
#include "conference/recovery.hpp"
#include "conference/waitqueue.hpp"
#include "min/types.hpp"
#include "runtime/command.hpp"
#include "runtime/queue.hpp"
#include "runtime/runtime.hpp"
#include "util/rng.hpp"

namespace {

using confnet::min::u32;
using confnet::min::u64;
namespace conf = confnet::conf;
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

TEST(Runtime, OpenBatchReportsInputOrderOutcomes) {
  rt::Runtime r(small_config(1, 1));
  r.start();
  rt::Command c;
  c.kind = rt::CommandKind::kOpenBatch;
  c.batch_sizes = {2, 5, 3};
  auto result = r.call_pooled(0, std::move(c)).take();
  r.stop();
  ASSERT_EQ(result.status, rt::CommandStatus::kDone);
  ASSERT_EQ(result.batch.size(), 3u);

  // The runtime must report exactly what a serial WaitQueueManager fed the
  // same batch with the same seed reports, in input order. (Not all three
  // need to be admitted — blocking is the point of these fabrics.)
  const rt::RuntimeConfig cfg = small_config(1, 1);
  conf::DirectConferenceNetwork net(
      cfg.shard.kind, cfg.shard.stages,
      conf::DilationProfile::uniform(cfg.shard.stages, 1));
  conf::WaitQueueManager oracle(net, cfg.shard.policy,
                                cfg.shard.wait_capacity,
                                cfg.shard.wait_bypass, cfg.shard.backend);
  confnet::util::Rng rng(cfg.shard.seed);
  const auto expected = oracle.request_batch({2, 5, 3}, rng);
  ASSERT_EQ(expected.size(), 3u);
  u32 served = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(result.batch[i].outcome, expected[i].outcome);
    EXPECT_EQ(result.batch[i].session.has_value(),
              expected[i].session.has_value());
    if (result.batch[i].session) ++served;
  }
  EXPECT_GE(served, 1u);
  const rt::RuntimeSnapshot snap = r.snapshot();
  EXPECT_EQ(snap.total.opens, 3u);
  EXPECT_EQ(snap.total.accepted, static_cast<u64>(served));
}

TEST(Runtime, ReplaceSwapsSessionsAndToleratesDeadOnes) {
  rt::Runtime r(small_config(1, 1));
  r.start();
  auto opened = r.call_pooled(0, open_cmd(4)).take();
  ASSERT_TRUE(opened.open.session.has_value());

  rt::Command swap;
  swap.kind = rt::CommandKind::kReplace;
  swap.session = *opened.open.session;
  swap.size = 2;
  auto swapped = r.call_pooled(0, std::move(swap)).take();
  EXPECT_TRUE(swapped.ok);
  EXPECT_EQ(swapped.open.outcome, conf::RequestOutcome::kServed);

  // Replacing a session that no longer exists still runs the open half.
  rt::Command ghost;
  ghost.kind = rt::CommandKind::kReplace;
  ghost.session = 9999;
  ghost.size = 2;
  auto ghosted = r.call_pooled(0, std::move(ghost)).take();
  EXPECT_FALSE(ghosted.ok);
  EXPECT_EQ(ghosted.open.outcome, conf::RequestOutcome::kServed);
  r.stop();
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
  ASSERT_EQ(commands.pop_batch(burst, 8), 1u);
  burst.clear();
  EXPECT_EQ(captured.use_count(), 1);

  // The same for an element whose move leaves its source intact.
  Counted::reset_counts();
  rt::BoundedMpscQueue<Counted> q(4);
  auto token = std::make_shared<int>(0);
  ASSERT_EQ(q.try_push(Counted(1, token)), rt::QueuePush::kOk);
  EXPECT_EQ(token.use_count(), 2);
  std::vector<Counted> out;
  ASSERT_EQ(q.pop_batch(out, 8), 1u);
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
  rt::RuntimeConfig cfg = small_config(4, 2);
  cfg.shard.queue_depth = 512;
  rt::Runtime r(cfg);
  r.start();

  std::atomic<int> completions{0};
  constexpr int kPerShard = 100;
  for (u32 s = 0; s < 4; ++s) {
    for (int i = 0; i < kPerShard; ++i) {
      rt::Command c =
          open_cmd(2 + static_cast<u32>(i % 3));
      if (i % 5 == 4) {
        c.kind = rt::CommandKind::kOpenBatch;
        c.batch_sizes = {2, 3};
        c.size = 0;
      }
      c.done = [&](rt::CommandResult&& result) {
        EXPECT_EQ(result.status, rt::CommandStatus::kDone);
        completions.fetch_add(1);
      };
      ASSERT_EQ(r.submit_to_blocking(s, std::move(c)),
                rt::SubmitStatus::kAccepted);
    }
  }
  r.stop();  // no drain() first — stop itself must finish the backlog

  EXPECT_EQ(completions.load(), 4 * kPerShard);
  const rt::RuntimeSnapshot snap = r.snapshot();
  EXPECT_EQ(snap.total.completed, static_cast<u64>(4 * kPerShard));
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
// RecoveryCoordinator, never a second tally. Both tests drive a Shard
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
      for (u32 victim : r.torn_sessions) {
        bool relocated = false;
        for (const auto& [origin, replacement] : r.relocated)
          relocated = relocated || origin == victim;
        if (!relocated && shard.recovery().pending() > 0) return victim;
      }
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
// Trace ring.
// ---------------------------------------------------------------------------

TEST(Runtime, TraceRingDumpsTaggedJsonl) {
  rt::RuntimeConfig cfg = small_config(2, 1);
  cfg.shard.trace_capacity = 32;
  rt::Runtime r(cfg);
  r.start();
  for (u32 s = 0; s < 2; ++s)
    for (int i = 0; i < 5; ++i) (void)r.call_pooled(s, open_cmd(2)).take();
  r.stop();

  std::ostringstream os;
  r.dump_trace_jsonl(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"shard\""), std::string::npos);
  EXPECT_NE(out.find("\"open\""), std::string::npos);
  // 10 commands → 10 lines.
  std::size_t lines = 0;
  for (char ch : out)
    if (ch == '\n') ++lines;
  EXPECT_EQ(lines, 10u);
}

}  // namespace
