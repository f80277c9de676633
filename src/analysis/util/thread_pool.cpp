#include "analysis/util/thread_pool.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace confnet::util {

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      // Explicit predicate loop (not a wait-with-lambda): the guarded reads
      // of stop_ / queue_ stay visible to the thread-safety analysis.
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.wait(mu_);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_chunks(count, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace confnet::util
