// Runtime stress suite — the dynamic (TSan) half of the concurrent-runtime
// gate. Command storms from many producer threads, concurrent fault
// injection, session churn, and snapshot readers all hammer a 4+-shard
// Runtime at once; the `tsan` CMake preset (CI's static-analysis job) runs
// this binary under ThreadSanitizer to catch ordering bugs the functional
// tests can't. The hand-off protocols each get a storm of their own: stop()
// landing while workers spin, pooled handles dropped while their fulfill
// races in (settle-before-recycle), staged flushes into full queues (the
// wake before a blocking push), and verdicts that must not depend on the
// worker count. Every test also asserts functional invariants (completion
// counts, snapshot consistency, conservation laws), so the suite gates
// plain Release builds too.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <tuple>
#include <vector>

#include "conference/waitqueue.hpp"
#include "min/types.hpp"
#include "runtime/command.hpp"
#include "runtime/runtime.hpp"
#include "util/rng.hpp"

namespace {

using confnet::min::u32;
using confnet::min::u64;
namespace conf = confnet::conf;
namespace rt = confnet::runtime;

rt::RuntimeConfig stress_config(u32 shards, u32 workers) {
  rt::RuntimeConfig cfg;
  cfg.shards = shards;
  cfg.workers = workers;
  cfg.shard.stages = 4;
  cfg.shard.queue_depth = 128;
  cfg.shard.wait_capacity = 8;
  cfg.shard.seed = 99;
  return cfg;
}

/// A close of a session no shard ever opened: a no-op that still makes a
/// full round trip and reports `ok == false`.
rt::Command noop_close() {
  rt::Command c;
  c.kind = rt::CommandKind::kClose;
  c.session = 1u << 30;
  return c;
}

// Many producers blasting opens, staged open bursts and close-then-open
// pairs at every shard while the runtime churns; every accepted command's
// completion must run exactly once.
TEST(RuntimeStress, CommandStormAcrossShards) {
  constexpr u32 kShards = 4;
  constexpr u32 kWorkers = 4;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 400;

  rt::Runtime r(stress_config(kShards, kWorkers));
  r.start();

  std::atomic<u64> completions{0};
  std::atomic<u64> sent{0};
  std::atomic<u64> accepted_submits{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      confnet::util::Rng rng(static_cast<u64>(p) + 1);
      rt::CommandStage stage;
      std::vector<rt::PooledResult> burst;
      const auto count_done = [&](rt::CommandResult&&) {
        completions.fetch_add(1);
      };
      const auto submit = [&](u32 shard, rt::Command&& c) {
        c.done = count_done;
        sent.fetch_add(1);
        if (r.submit_to_blocking(shard, std::move(c)) ==
            rt::SubmitStatus::kAccepted)
          accepted_submits.fetch_add(1);
      };
      for (int i = 0; i < kPerProducer; ++i) {
        const u64 roll = rng.below(10);
        if (roll < 6) {
          rt::Command c;
          c.kind = rt::CommandKind::kOpen;
          c.size = 2 + static_cast<u32>(rng.below(5));
          submit(static_cast<u32>(rng.below(kShards)), std::move(c));
        } else if (roll < 8) {
          // A staged burst of three opens to one shard, largest first.
          std::vector<u32> sizes = {2, 3, static_cast<u32>(2 + rng.below(3))};
          std::stable_sort(sizes.begin(), sizes.end(), std::greater<>());
          const u32 shard = static_cast<u32>(rng.below(kShards));
          burst.clear();
          for (u32 size : sizes) {
            rt::Command c;
            c.kind = rt::CommandKind::kOpen;
            c.size = size;
            burst.push_back(r.stage_call(stage, shard, std::move(c)));
          }
          sent.fetch_add(sizes.size());
          if (r.submit_stage(stage) == rt::SubmitStatus::kAccepted)
            accepted_submits.fetch_add(sizes.size());
          for (auto& handle : burst)
            if (handle.take().status == rt::CommandStatus::kDone)
              completions.fetch_add(1);
        } else {
          // Close a session (live or not), then open a fresh one there.
          rt::Command close;
          close.kind = rt::CommandKind::kClose;
          close.session = static_cast<u32>(rng.below(40));
          rt::Command open;
          open.kind = rt::CommandKind::kOpen;
          open.size = 2 + static_cast<u32>(rng.below(4));
          const u32 shard = static_cast<u32>(rng.below(kShards));
          submit(shard, std::move(close));
          submit(shard, std::move(open));
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  r.stop();

  // Post-stop rejections also invoke `done`, so the two counts only match
  // when nothing raced; here every submit happened before stop().
  EXPECT_EQ(accepted_submits.load(), sent.load());
  EXPECT_GE(sent.load(), static_cast<u64>(kProducers) * kPerProducer);
  EXPECT_EQ(completions.load(), accepted_submits.load());
  const rt::RuntimeSnapshot snap = r.snapshot();
  EXPECT_EQ(snap.total.completed, accepted_submits.load());
  for (const rt::ShardStats& s : snap.shards) EXPECT_TRUE(s.consistent());
}

// Churn + concurrent fault injection + snapshot readers: opens race with
// fail/repair commands on the same shards while another thread reads
// snapshots. Conservation must hold at the end.
TEST(RuntimeStress, ConcurrentFaultsAndChurn) {
  constexpr u32 kShards = 4;
  rt::Runtime r(stress_config(kShards, 2));
  r.start();

  std::atomic<bool> go{true};

  std::thread churner([&] {
    confnet::util::Rng rng(11);
    for (int i = 0; i < 1200; ++i) {
      rt::Command c;
      c.kind = rt::CommandKind::kOpen;
      if (rng.chance(0.25)) {
        // Close a session (live or not), then open a fresh one there.
        rt::Command close;
        close.kind = rt::CommandKind::kClose;
        close.session = static_cast<u32>(rng.below(60));
        c.size = 2 + static_cast<u32>(rng.below(4));
        const u32 shard = static_cast<u32>(rng.below(kShards));
        (void)r.submit_to_blocking(shard, std::move(close));
        (void)r.submit_to_blocking(shard, std::move(c));
      } else {
        c.size = 2 + static_cast<u32>(rng.below(5));
        (void)r.submit_to_blocking(static_cast<u32>(rng.below(kShards)),
                                   std::move(c));
      }
    }
  });

  std::thread faulter([&] {
    confnet::util::Rng rng(13);
    for (int i = 0; i < 120; ++i) {
      const u32 shard = static_cast<u32>(rng.below(kShards));
      const u32 level = static_cast<u32>(rng.below(3));
      const u32 row = static_cast<u32>(rng.below(8));
      rt::Command fail;
      fail.kind = rt::CommandKind::kFailLink;
      fail.level = level;
      fail.row = row;
      (void)r.submit_to_blocking(shard, std::move(fail));
      rt::Command repair;
      repair.kind = rt::CommandKind::kRepairLink;
      repair.level = level;
      repair.row = row;
      (void)r.submit_to_blocking(shard, std::move(repair));
    }
  });

  std::thread reader([&] {
    while (go.load()) {
      const rt::RuntimeSnapshot snap = r.snapshot();
      for (const rt::ShardStats& s : snap.shards) EXPECT_TRUE(s.consistent());
    }
  });

  churner.join();
  faulter.join();
  go.store(false);
  reader.join();
  r.stop();

  const rt::RuntimeSnapshot snap = r.snapshot();
  for (u32 s = 0; s < kShards; ++s) {
    const rt::ShardStats& st = snap.shards[s];
    EXPECT_TRUE(st.consistent());
    // The published counters are the coordinator's own, copied at the
    // final publish — never a second tally.
    EXPECT_EQ(st.recovery, r.shard(s).recovery().stats()) << "shard " << s;
    // Conservation: every interrupted session was recovered, dropped by
    // the shutdown retry flush, or is still queued awaiting capacity.
    EXPECT_EQ(st.recovery.recovered() + st.recovery.dropped +
                  st.recovery.expired + r.shard(s).recovery().pending(),
              st.recovery.sessions_interrupted);
  }
  EXPECT_EQ(snap.total.completed, r.submitted());
}

// Producers racing stop(): every command is either applied or rejected
// with kRejectedStopped — never dropped without an answer. Blocking
// submits never bounce, so a producer parked on a full queue when stop()
// closes it is answered inline too.
TEST(RuntimeStress, StopRaceLosesNoCommands) {
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 200;
  for (int round = 0; round < 8; ++round) {
    rt::Runtime r(stress_config(4, 2));
    r.start();

    std::atomic<u64> applied{0};
    std::atomic<u64> rejected{0};
    std::atomic<u64> accounted{0};  // accepted or inline-rejected
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        confnet::util::Rng rng(static_cast<u64>(round * 10 + p) + 1);
        for (int i = 0; i < kPerProducer; ++i) {
          rt::Command c;
          c.kind = rt::CommandKind::kOpen;
          c.size = 2;
          c.done = [&](rt::CommandResult&& res) {
            (res.status == rt::CommandStatus::kDone ? applied : rejected)
                .fetch_add(1);
          };
          const rt::SubmitStatus st = r.submit_to_blocking(
              static_cast<u32>(rng.below(4)), std::move(c));
          if (st == rt::SubmitStatus::kAccepted ||
              st == rt::SubmitStatus::kStopped)
            accounted.fetch_add(1);
        }
      });
    }
    // Stop somewhere in the middle of the storm.
    r.stop();
    for (auto& t : producers) t.join();
    const u64 total = static_cast<u64>(kProducers) * kPerProducer;
    EXPECT_EQ(accounted.load(), total);
    EXPECT_EQ(applied.load() + rejected.load(), total);
    EXPECT_EQ(rejected.load(), r.snapshot().total.rejected_stopped);
  }
}

// stop() while every worker spins: each round leaves all four workers
// just past a scan that applied work, then stops at once, with a second
// producer still submitting. The stop's wake must end the spin, and every
// command must still be applied or rejected, never lost.
TEST(RuntimeStress, StopWhileWorkersSpin) {
  for (int round = 0; round < 40; ++round) {
    rt::Runtime r(stress_config(4, 4));
    r.start();
    for (u32 s = 0; s < 4; ++s)
      ASSERT_EQ(r.call_pooled(s, noop_close()).take().status,
                rt::CommandStatus::kDone);
    std::atomic<u64> answered{0};
    std::thread producer([&] {
      for (u32 i = 0; i < 64; ++i) {
        const rt::CommandResult res = r.call_pooled(i % 4, noop_close()).take();
        EXPECT_TRUE(res.status == rt::CommandStatus::kDone ||
                    res.status == rt::CommandStatus::kRejectedStopped);
        answered.fetch_add(1);
      }
    });
    r.stop();
    producer.join();
    EXPECT_EQ(answered.load(), 64u);
    const rt::RuntimeSnapshot snap = r.snapshot();
    EXPECT_EQ(snap.total.completed + snap.total.rejected_stopped, 4u + 64u);
    EXPECT_EQ(snap.total.completed, r.submitted());
  }
}

// A PooledResult dropped before its command completes settles in its
// destructor: it waits for the fulfill before the slot is recycled. Every
// producer alternates dropped opens with taken no-op closes; a slot
// recycled early would hand a close the stale open's result (wrong kind
// or shard), and the pool would grow past one slot per producer.
TEST(RuntimeStress, DroppedPooledResultsSettleBeforeRecycle) {
  constexpr int kProducers = 4;
  constexpr int kRounds = 400;
  rt::Runtime r(stress_config(4, 2));
  r.start();
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      confnet::util::Rng rng(static_cast<u64>(p) + 21);
      for (int i = 0; i < kRounds; ++i) {
        rt::Command open;
        open.kind = rt::CommandKind::kOpen;
        open.size = 2;
        const u32 dropped_at = static_cast<u32>(rng.below(4));
        if (i % 2 == 0) {
          (void)r.call_pooled(dropped_at, std::move(open));  // settles here
        } else {
          // Move-assigning over an unfinished handle settles it too.
          rt::PooledResult handle = r.call_pooled(dropped_at, std::move(open));
          handle = r.call_pooled(dropped_at, noop_close());
          EXPECT_EQ(handle.take().kind, rt::CommandKind::kClose);
        }
        const u32 shard = static_cast<u32>(rng.below(4));
        const rt::CommandResult res = r.call_pooled(shard, noop_close()).take();
        EXPECT_EQ(res.kind, rt::CommandKind::kClose);
        EXPECT_EQ(res.shard, shard);
        EXPECT_FALSE(res.ok);
      }
    });
  }
  for (auto& t : producers) t.join();
  r.stop();
  EXPECT_LE(r.pooled_slots(), static_cast<std::size_t>(2 * kProducers));
  EXPECT_EQ(r.snapshot().total.completed,
            static_cast<u64>(kProducers) * kRounds * 5 / 2);
}

// Staged flushes into queues of depth 2: each burst is far larger than the
// queue, so submit_stage must wake a shard's worker before it blocks on
// that shard's full queue — its own wake is still deferred. Three
// producers flush concurrently; a missing wake deadlocks the test.
TEST(RuntimeStress, StagedFlushWakesBeforeBlockingOnAFullQueue) {
  constexpr int kProducers = 3;
  constexpr int kFlushes = 30;
  constexpr int kBurst = 24;
  rt::RuntimeConfig cfg = stress_config(4, 2);
  cfg.shard.queue_depth = 2;
  rt::Runtime r(cfg);
  r.start();
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      confnet::util::Rng rng(static_cast<u64>(p) + 31);
      rt::CommandStage stage;
      std::vector<std::pair<u32, rt::PooledResult>> pending;
      for (int f = 0; f < kFlushes; ++f) {
        for (int i = 0; i < kBurst; ++i) {
          const u32 shard = static_cast<u32>(rng.below(4));
          pending.emplace_back(shard, r.stage_call(stage, shard, noop_close()));
        }
        EXPECT_EQ(r.submit_stage(stage), rt::SubmitStatus::kAccepted);
        for (auto& [shard, handle] : pending) {
          const rt::CommandResult res = handle.take();
          EXPECT_EQ(res.status, rt::CommandStatus::kDone);
          EXPECT_EQ(res.shard, shard);
        }
        pending.clear();
      }
    });
  }
  for (auto& t : producers) t.join();
  r.stop();
  const rt::RuntimeSnapshot snap = r.snapshot();
  EXPECT_EQ(snap.total.completed,
            static_cast<u64>(kProducers) * kFlushes * kBurst);
  EXPECT_LE(snap.total.max_queue_depth, 2u);
}

// Worker-count invariance under concurrent producers: producer p owns
// shard p and drives it through all three pooled paths (call_pooled,
// stage_call + submit_stage, and a dropped handle), so each shard's command
// order is fixed while the producers race one another. Every shard's
// verdict sequence must be the same at W = 1, 2 and 4.
TEST(RuntimeStress, VerdictsIndependentOfWorkerCount) {
  using Verdict = std::tuple<int, u32, bool, std::size_t>;
  constexpr u32 kShards = 4;
  auto run = [](u32 workers) {
    rt::Runtime r(stress_config(kShards, workers));
    r.start();
    std::vector<std::vector<Verdict>> verdicts(kShards);
    std::vector<std::thread> producers;
    for (u32 p = 0; p < kShards; ++p) {
      producers.emplace_back([&r, &verdicts, p] {
        confnet::util::Rng rng(1000 + p);
        std::deque<u32> live;
        rt::CommandStage stage;
        auto record = [&](const rt::CommandResult& res) {
          const bool served = res.kind != rt::CommandKind::kClose &&
                              res.open.outcome == conf::RequestOutcome::kServed;
          if (served) live.push_back(*res.open.session);
          verdicts[p].emplace_back(
              res.kind == rt::CommandKind::kClose
                  ? -1
                  : static_cast<int>(res.open.outcome),
              served ? *res.open.session : 0u, res.ok, res.served.size());
        };
        for (int i = 0; i < 300; ++i) {
          const u64 roll = rng.below(10);
          if (!live.empty() && roll < 4) {
            rt::Command c;
            c.kind = rt::CommandKind::kClose;
            c.session = live.front();
            live.pop_front();
            record(r.call_pooled(p, std::move(c)).take());
          } else if (roll < 7) {
            rt::Command c;
            c.kind = rt::CommandKind::kOpen;
            c.size = 2 + static_cast<u32>(rng.below(4));
            record(r.call_pooled(p, std::move(c)).take());
          } else if (roll < 9) {
            std::vector<rt::PooledResult> burst;
            for (int b = 0; b < 3; ++b) {
              rt::Command c;
              c.kind = rt::CommandKind::kOpen;
              c.size = 2 + static_cast<u32>(rng.below(3));
              burst.push_back(r.stage_call(stage, p, std::move(c)));
            }
            (void)r.submit_stage(stage);
            for (auto& h : burst) record(h.take());
          } else {
            (void)r.call_pooled(p, noop_close());  // dropped, settles
          }
        }
      });
    }
    for (auto& t : producers) t.join();
    r.stop();
    return verdicts;
  };
  const auto base = run(1);
  for (u32 s = 0; s < kShards; ++s) ASSERT_GT(base[s].size(), 200u);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(4), base);
}

}  // namespace
