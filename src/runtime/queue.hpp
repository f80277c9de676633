// Bounded multi-producer/single-consumer command queue.
//
// The only hand-off point between producer threads and a shard's owner
// thread. Thread-safe: the ring state is guarded by the internal
// util::Mutex (annotated, so Clang -Wthread-safety proves the locking);
// producers block (push_wait) or bounce (try_push) when the bound is hit —
// that is the runtime's backpressure — and the consumer drains in bursts
// (pop_batch) so the per-command lock cost amortizes to ~1/burst.
//
// Allocation discipline: storage is one ring of `capacity` slots allocated
// at construction and recycled forever — the steady-state push/pop path
// moves values in and out of preexisting slots and never allocates (the
// `hot-alloc` static check covers it). A slot is an empty std::optional
// until a push fills it and is emptied again by the pop that takes its
// value, so construction runs no element constructor and a queued value
// (with whatever it owns) lives exactly as long as it is queued.
//
// Fast-fail: try_push first consults `approx_size_`, an atomic mirror of
// the ring occupancy maintained under the lock. A producer that reads it
// at capacity bounces without touching the mutex at all. The mirror can be
// momentarily stale (a concurrent pop may already have freed a slot), so a
// bounce is advisory — exactly the contract try_push always had: kFull
// means "retry or block", never "the queue will still be full". With no
// concurrent consumer the mirror is exact.
//
// Shutdown protocol: close() flips the queue into draining mode — further
// pushes fail with kClosed (the caller is told; nothing is dropped
// silently) while pop_batch keeps handing out what was already accepted,
// so in-flight commands complete. `pushed()` is the producers-side
// watermark drain logic compares against the consumer's completion count.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace confnet::runtime {

/// Push verdict; kFull and kClosed both return ownership to the caller.
enum class QueuePush : std::uint8_t { kOk, kFull, kClosed };

template <typename T>
class BoundedMpscQueue {
 public:
  explicit BoundedMpscQueue(std::size_t capacity) : capacity_(capacity) {
    expects(capacity > 0, "BoundedMpscQueue capacity must be > 0");
    ring_.resize(capacity);  // the only allocation this queue ever makes
  }

  BoundedMpscQueue(const BoundedMpscQueue&) = delete;
  BoundedMpscQueue& operator=(const BoundedMpscQueue&) = delete;

  /// Enqueue without blocking. kFull = backpressure (bound reached),
  /// kClosed = the queue no longer accepts work; in both cases `item`
  /// is untouched and still owned by the caller. A full queue is detected
  /// from the lock-free occupancy mirror first, so saturated producers
  /// bounce without contending on the mutex.
  [[nodiscard]] CONFNET_HOT QueuePush try_push(T&& item) {
    if (approx_size_.load(std::memory_order_relaxed) >= capacity_) {
      bounced_.fetch_add(1, std::memory_order_relaxed);
      return QueuePush::kFull;
    }
    {
      util::MutexLock lock(mu_);
      if (closed_) return QueuePush::kClosed;
      if (size_ >= capacity_) {
        bounced_.fetch_add(1, std::memory_order_relaxed);
        return QueuePush::kFull;
      }
      place(std::move(item));
    }
    return QueuePush::kOk;
  }

  /// Enqueue, blocking while the queue is at capacity. Returns kOk, or
  /// kClosed when the queue closed before space opened up.
  [[nodiscard]] CONFNET_HOT QueuePush push_wait(T&& item) {
    {
      util::MutexLock lock(mu_);
      while (!closed_ && size_ >= capacity_) space_cv_.wait(mu_);
      if (closed_) return QueuePush::kClosed;
      place(std::move(item));
    }
    return QueuePush::kOk;
  }

  /// Consumer side: move up to `max` items into `out` (appended; `out` is
  /// not cleared). Returns the number taken. Never blocks — the worker's
  /// parking/wakeup protocol lives with the worker, not the queue.
  CONFNET_HOT std::size_t pop_batch(std::vector<T>& out, std::size_t max) {
    std::size_t taken = 0;
    bool freed_space = false;
    {
      util::MutexLock lock(mu_);
      const bool was_full = size_ >= capacity_;
      while (taken < max && size_ > 0) {
        // static_check: allow(hot-alloc) `out` is the consumer's reused
        // burst buffer, reserved to the burst bound once at startup
        out.push_back(std::move(*ring_[head_]));
        ring_[head_].reset();
        head_ = (head_ + 1) % capacity_;
        --size_;
        ++taken;
      }
      approx_size_.store(size_, std::memory_order_relaxed);
      freed_space = was_full && taken > 0;
    }
    if (freed_space) space_cv_.notify_all();
    return taken;
  }

  /// Stop accepting pushes; queued items keep draining through pop_batch.
  /// Blocked push_wait callers wake up and observe kClosed.
  void close() {
    {
      util::MutexLock lock(mu_);
      closed_ = true;
    }
    space_cv_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    util::MutexLock lock(mu_);
    return size_;
  }

  /// Total items ever accepted (the drain watermark). A bounced try_push
  /// never counts here — only the accept of an eventual retry does.
  [[nodiscard]] std::uint64_t pushed() const {
    util::MutexLock lock(mu_);
    return pushed_;
  }

  /// try_push bounces (kFull verdicts). Monotonic; a command retried after
  /// a bounce contributes one bounce per refusal plus exactly one accept.
  [[nodiscard]] std::uint64_t bounced() const {
    return bounced_.load(std::memory_order_relaxed);
  }

 private:
  /// Move `item` into the tail slot. Caller holds mu_ and checked space.
  CONFNET_HOT void place(T&& item) CONFNET_REQUIRES(mu_) {
    ring_[tail_] = std::move(item);
    tail_ = (tail_ + 1) % capacity_;
    ++size_;
    approx_size_.store(size_, std::memory_order_relaxed);
    ++pushed_;
  }

  const std::size_t capacity_;  // runtime-owner: immutable
  mutable util::Mutex mu_;      // runtime-owner: lock
  util::CondVar space_cv_;      // runtime-owner: lock
  std::vector<std::optional<T>> ring_ CONFNET_GUARDED_BY(mu_);
  std::size_t head_ CONFNET_GUARDED_BY(mu_) = 0;
  std::size_t tail_ CONFNET_GUARDED_BY(mu_) = 0;
  std::size_t size_ CONFNET_GUARDED_BY(mu_) = 0;
  bool closed_ CONFNET_GUARDED_BY(mu_) = false;
  std::uint64_t pushed_ CONFNET_GUARDED_BY(mu_) = 0;
  std::atomic<std::size_t> approx_size_{0};  // runtime-owner: atomic
  std::atomic<std::uint64_t> bounced_{0};    // runtime-owner: atomic
};

}  // namespace confnet::runtime
