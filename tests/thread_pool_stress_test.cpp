// ThreadPool stress tests, written to give TSan something to bite on:
// many concurrent producers, tasks that throw, destruction with work still
// queued, and overlapping parallel_for callers. All tests are also
// functional (they verify counts), so they gate Release builds too.
#include "analysis/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace {

using confnet::util::ThreadPool;

TEST(ThreadPoolStress, ManyProducersSubmitConcurrently) {
  ThreadPool pool(4);
  constexpr std::size_t kProducers = 8;
  constexpr std::size_t kTasksPer = 250;

  std::mutex futs_mu;
  std::vector<std::future<std::size_t>> futs;
  futs.reserve(kProducers * kTasksPer);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t t = 0; t < kTasksPer; ++t) {
        const std::size_t id = p * kTasksPer + t;
        auto fut = pool.submit([id] { return id; });
        std::lock_guard lock(futs_mu);
        futs.push_back(std::move(fut));
      }
    });
  }
  for (auto& th : producers) th.join();

  ASSERT_EQ(futs.size(), kProducers * kTasksPer);
  std::size_t sum = 0;
  for (auto& f : futs) sum += f.get();
  const std::size_t total = kProducers * kTasksPer;
  EXPECT_EQ(sum, total * (total - 1) / 2);
}

TEST(ThreadPoolStress, TaskExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto bad = pool.submit([]() -> int {
    throw confnet::Error("task failed on purpose");
  });
  auto good = pool.submit([] { return 42; });
  EXPECT_THROW((void)bad.get(), confnet::Error);
  // A throwing task must not poison the pool.
  EXPECT_EQ(good.get(), 42);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolStress, ParallelForRethrowsFirstErrorAndSurvives) {
  ThreadPool pool(4);
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(
      pool.parallel_for(1000,
                        [&](std::size_t i) {
                          ran.fetch_add(1, std::memory_order_relaxed);
                          if (i == 537) {
                            throw confnet::Error("element 537 is cursed");
                          }
                        }),
      confnet::Error);
  EXPECT_LE(ran.load(), 1000u);

  // The pool remains fully functional afterwards and covers every index.
  std::vector<std::atomic<int>> hits(256);
  pool.parallel_for(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolStress, DestructionDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futs;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      futs.push_back(pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ran.fetch_add(1, std::memory_order_relaxed);
      }));
    }
    // Destructor runs here with most of the queue still pending: the
    // contract is that queued work is drained, not dropped.
  }
  for (auto& f : futs) EXPECT_NO_THROW(f.get());
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolStress, DestructionWithThrowingQueuedTasks) {
  // Futures are deliberately discarded: the exceptions are parked in the
  // shared states and must not escape the worker threads or the destructor.
  ThreadPool pool(1);
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 32; ++i) {
    futs.push_back(
        pool.submit([] { throw confnet::Error("queued then thrown"); }));
  }
  // Let the destructor drain the queue; getting any future afterwards still
  // reports the task's exception.
  futs.clear();
}

TEST(ThreadPoolStress, ConcurrentParallelForCallers) {
  ThreadPool pool(4);
  constexpr std::size_t kCallers = 3;
  constexpr std::size_t kCount = 400;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& v : hits) {
    std::vector<std::atomic<int>> fresh(kCount);
    v.swap(fresh);
  }

  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.parallel_for(kCount, [&, c](std::size_t i) {
        hits[c][i].fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  for (auto& th : callers) th.join();

  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[c][i].load(), 1) << "caller " << c << " index " << i;
    }
  }
}

TEST(ThreadPoolStress, ZeroAndOneWorkerFallbacks) {
  // workers == 0 selects hardware_concurrency (>= 1); count handled inline
  // when the pool cannot parallelize.
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  pool.parallel_for(64, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 64);
  pool.parallel_for(0, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 64);
}

}  // namespace
