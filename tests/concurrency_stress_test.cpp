// Concurrency stress suite — the dynamic half of the thread-safety gate.
// Where -Wthread-safety proves lock discipline statically and
// tools/static_check.py pins the repo's concurrency conventions, this
// binary hammers the actual interleavings under TSan (the `tsan` CMake
// preset; CI's static-analysis job runs it): nested fork/join on the
// shared thread pool, concurrent metrics registration/updates/snapshots,
// concurrent trace recording against dump/clear, parallel logging, and the
// parallel Monte-Carlo runner whose results must stay byte-identical to
// the serial reference under contention. Every test is functional too, so
// the suite also gates plain Release builds.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "conference/multiplicity.hpp"
#include "conference/placement.hpp"
#include "min/types.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace {

using confnet::util::ThreadPool;

// ---------------------------------------------------------------------------
// Thread pool: nested fork/join (the caller-drains contract).
// ---------------------------------------------------------------------------

TEST(ConcurrencyStress, NestedParallelForChunksCoversEveryIndex) {
  // Regression for the nested fork/join contract: an outer
  // parallel_for_chunks body that itself calls parallel_for_chunks on the
  // SAME pool must not deadlock (the caller participates in draining, so
  // progress never depends on a free worker) and must cover every index
  // exactly once at both levels.
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 512;
  std::vector<std::vector<std::atomic<int>>> hits(kOuter);
  for (auto& row : hits) {
    std::vector<std::atomic<int>> fresh(kInner);
    row.swap(fresh);
  }

  pool.parallel_for_chunks(kOuter, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t o = ob; o < oe; ++o) {
      pool.parallel_for_chunks(kInner, [&, o](std::size_t ib, std::size_t ie) {
        for (std::size_t i = ib; i < ie; ++i)
          hits[o][i].fetch_add(1, std::memory_order_relaxed);
      });
    }
  });

  for (std::size_t o = 0; o < kOuter; ++o)
    for (std::size_t i = 0; i < kInner; ++i)
      ASSERT_EQ(hits[o][i].load(), 1) << "outer " << o << " inner " << i;
}

TEST(ConcurrencyStress, NestedChunksInnerExceptionReachesOuterCaller) {
  ThreadPool pool(4);
  std::atomic<std::size_t> completed{0};
  EXPECT_THROW(
      pool.parallel_for_chunks(
          4,
          [&](std::size_t ob, std::size_t oe) {
            for (std::size_t o = ob; o < oe; ++o) {
              pool.parallel_for_chunks(64, [&, o](std::size_t ib,
                                                  std::size_t ie) {
                for (std::size_t i = ib; i < ie; ++i) {
                  if (o == 2 && i == 33)
                    throw confnet::Error("inner chunk fails");
                  completed.fetch_add(1, std::memory_order_relaxed);
                }
              });
            }
          }),
      confnet::Error);
  // The pool survives a nested failure fully functional.
  std::atomic<std::size_t> ran{0};
  pool.parallel_for_chunks(128, [&](std::size_t b, std::size_t e) {
    ran.fetch_add(e - b, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 128u);
}

TEST(ConcurrencyStress, SubmitStormWhileChunksRun) {
  // submit() producers race against a parallel_for_chunks caller on one
  // pool: the queue mutex serializes enqueues while the chunk drain steals
  // from the same queue.
  ThreadPool pool(4);
  std::atomic<std::size_t> chunk_work{0};
  std::atomic<std::size_t> task_work{0};

  std::thread chunker([&] {
    for (int round = 0; round < 8; ++round) {
      pool.parallel_for_chunks(256, [&](std::size_t b, std::size_t e) {
        chunk_work.fetch_add(e - b, std::memory_order_relaxed);
      });
    }
  });
  std::vector<std::future<void>> futs;
  futs.reserve(200);
  for (int i = 0; i < 200; ++i) {
    futs.push_back(pool.submit(
        [&] { task_work.fetch_add(1, std::memory_order_relaxed); }));
  }
  chunker.join();
  for (auto& f : futs) f.get();
  EXPECT_EQ(chunk_work.load(), 8u * 256u);
  EXPECT_EQ(task_work.load(), 200u);
}

// ---------------------------------------------------------------------------
// Metrics registry: registration races lookups races snapshots.
// ---------------------------------------------------------------------------

TEST(ConcurrencyStress, MetricsRegistrationUpdatesAndSnapshotsRace) {
  confnet::obs::Registry registry;
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kRounds = 400;

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      // Each thread re-looks-up a shared counter (registration race: all
      // threads request the same identity) and owns a private gauge.
      const std::string own = "thread" + std::to_string(t);
      for (std::size_t r = 0; r < kRounds; ++r) {
        registry.counter("stress", "shared").add(1);
        registry.gauge("stress", "private", own).set(static_cast<double>(r));
        registry
            .histogram("stress", "latency",
                       confnet::obs::linear_buckets(0.0, 1.0, 8))
            .observe(static_cast<double>(r % 10));
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snap = registry.snapshot();
      // Monotone sanity under concurrency: a snapshot never sees more
      // shared-counter increments than could have happened.
      for (const auto& c : snap.counters) {
        if (c.name == "stress/shared") {
          EXPECT_LE(c.value, kThreads * kRounds);
        }
      }
    }
  });
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();

  EXPECT_EQ(registry.counter("stress", "shared").value(), kThreads * kRounds);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.gauges.size(), kThreads);
  for (const auto& h : snap.histograms)
    EXPECT_EQ(h.count, kThreads * kRounds);
}

// ---------------------------------------------------------------------------
// Tracer: concurrent emitters against dump and clear.
// ---------------------------------------------------------------------------

TEST(ConcurrencyStress, TraceRecordingRacesDumpAndClear) {
  confnet::obs::Tracer tracer;
  constexpr std::size_t kCapacity = 256;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kEvents = 2000;
  tracer.enable(kCapacity);
  tracer.set_run_key(7);

  std::vector<std::thread> emitters;
  emitters.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    emitters.emplace_back([&] {
      for (std::size_t i = 0; i < kEvents; ++i)
        tracer.record("stress", "event", static_cast<double>(i));
    });
  }
  for (int round = 0; round < 50; ++round) {
    std::ostringstream os;
    tracer.dump_jsonl(os);
    EXPECT_NE(os.str().find("\"seed\":7"), std::string::npos);
  }
  for (auto& th : emitters) th.join();

  // Ring accounting is exact once quiescent: everything recorded is either
  // retained (at most the capacity) or counted as dropped.
  EXPECT_EQ(tracer.size() + tracer.dropped(), kThreads * kEvents);
  EXPECT_LE(tracer.size(), kCapacity);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Logging: concurrent writers through the global sink.
// ---------------------------------------------------------------------------

TEST(ConcurrencyStress, ConcurrentLogLinesNeverInterleave) {
  // Redirect std::cerr for the duration; log_line holds the sink lock for
  // the whole line, so captured lines must come out intact.
  std::ostringstream captured;
  std::streambuf* saved = std::cerr.rdbuf(captured.rdbuf());
  const auto saved_level = confnet::util::log_level();
  confnet::util::set_log_level(confnet::util::LogLevel::kInfo);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kLines = 200;
  std::vector<std::thread> loggers;
  loggers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    loggers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kLines; ++i)
        confnet::util::log_line(confnet::util::LogLevel::kInfo,
                                "marker-" + std::to_string(t));
    });
  }
  for (auto& th : loggers) th.join();
  confnet::util::set_log_level(saved_level);
  std::cerr.rdbuf(saved);

  std::istringstream lines(captured.str());
  std::string line;
  std::size_t intact = 0;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.find("[confnet INFO ] marker-"), std::string::npos)
        << "interleaved or torn line: " << line;
    ++intact;
  }
  EXPECT_EQ(intact, kThreads * kLines);
}

// ---------------------------------------------------------------------------
// Parallel Monte-Carlo: determinism under real contention.
// ---------------------------------------------------------------------------

TEST(ConcurrencyStress, ParallelMonteCarloMatchesSerialUnderContention) {
  using confnet::conf::monte_carlo_multiplicity;
  using confnet::conf::monte_carlo_multiplicity_reference;
  constexpr confnet::conf::u32 kTrials = 48;
  constexpr confnet::conf::u64 kSeed = 20260808;

  const auto serial = monte_carlo_multiplicity_reference(
      confnet::min::Kind::kOmega, 4, 3, 2, 5,
      confnet::conf::PlacementPolicy::kRandom, kTrials, kSeed);

  ThreadPool pool(4);
  // Run twice concurrently on one pool: each run must still merge in trial
  // order and reproduce the serial stream exactly.
  confnet::conf::MonteCarloResult a, b;
  std::thread first([&] {
    a = monte_carlo_multiplicity(confnet::min::Kind::kOmega, 4, 3, 2, 5,
                                 confnet::conf::PlacementPolicy::kRandom,
                                 kTrials, kSeed, &pool);
  });
  b = monte_carlo_multiplicity(confnet::min::Kind::kOmega, 4, 3, 2, 5,
                               confnet::conf::PlacementPolicy::kRandom,
                               kTrials, kSeed, &pool);
  first.join();

  for (const auto* run : {&a, &b}) {
    EXPECT_EQ(run->max_peak, serial.max_peak);
    EXPECT_EQ(run->placement_failures, serial.placement_failures);
    EXPECT_EQ(run->peak_histogram, serial.peak_histogram);
    EXPECT_EQ(run->peak.count(), serial.peak.count());
    EXPECT_DOUBLE_EQ(run->peak.mean(), serial.peak.mean());
  }
}

}  // namespace
