// Runtime stress suite — the dynamic (TSan) half of the concurrent-runtime
// gate. Command storms from many producer threads, concurrent fault
// injection, session churn, and snapshot readers all hammer a 4+-shard
// Runtime at once; the `tsan` CMake preset (CI's static-analysis job) runs
// this binary under ThreadSanitizer to catch ordering bugs the functional
// tests can't. Every test also asserts functional invariants (completion
// counts, snapshot consistency, conservation laws), so the suite gates
// plain Release builds too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
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
  cfg.shard.trace_capacity = 64;
  return cfg;
}

// Many producers blasting opens/closes/replaces at every shard while the
// runtime churns; every accepted command's completion must run exactly once.
TEST(RuntimeStress, CommandStormAcrossShards) {
  constexpr u32 kShards = 4;
  constexpr u32 kWorkers = 4;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 400;

  rt::Runtime r(stress_config(kShards, kWorkers));
  r.start();

  std::atomic<u64> completions{0};
  std::atomic<u64> accepted_submits{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      confnet::util::Rng rng(static_cast<u64>(p) + 1);
      for (int i = 0; i < kPerProducer; ++i) {
        rt::Command c;
        const u64 roll = rng.below(10);
        if (roll < 6) {
          c.kind = rt::CommandKind::kOpen;
          c.size = 2 + static_cast<u32>(rng.below(5));
        } else if (roll < 8) {
          c.kind = rt::CommandKind::kOpenBatch;
          c.batch_sizes = {2, 3, static_cast<u32>(2 + rng.below(3))};
        } else {
          c.kind = rt::CommandKind::kReplace;
          c.session = static_cast<u32>(rng.below(40));
          c.size = 2 + static_cast<u32>(rng.below(4));
        }
        c.done = [&](rt::CommandResult&&) { completions.fetch_add(1); };
        const u32 shard = static_cast<u32>(rng.below(kShards));
        if (r.submit_to_blocking(shard, std::move(c)) ==
            rt::SubmitStatus::kAccepted)
          accepted_submits.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) t.join();
  r.stop();

  // Post-stop rejections also invoke `done`, so the two counts only match
  // when nothing raced; here every submit happened before stop().
  EXPECT_EQ(accepted_submits.load(),
            static_cast<u64>(kProducers) * kPerProducer);
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
      if (rng.chance(0.25)) {
        c.kind = rt::CommandKind::kReplace;
        c.session = static_cast<u32>(rng.below(60));
        c.size = 2 + static_cast<u32>(rng.below(4));
      } else {
        c.kind = rt::CommandKind::kOpen;
        c.size = 2 + static_cast<u32>(rng.below(5));
      }
      (void)r.submit_to_blocking(static_cast<u32>(rng.below(kShards)),
                                 std::move(c));
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

}  // namespace
