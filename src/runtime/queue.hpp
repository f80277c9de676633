// Bounded multi-producer/single-consumer command queue.
//
// The only hand-off point between producer threads and a shard's owner
// thread. Thread-safe: the ring state is guarded by the internal
// util::Mutex (annotated, so Clang -Wthread-safety proves the locking);
// producers block (push_wait) or bounce (try_push) when the bound is hit —
// that is the runtime's backpressure — and the consumer drains in bursts
// (pop_batch) so the per-command lock cost amortizes to ~1/burst. A burst
// takes the lock once: pop_batch also reports the depth it saw, so the
// consumer needs no separate size() probe.
//
// Allocation discipline: the ring starts at kInitialSlots slots (or
// `capacity`, if smaller) and doubles, unrolling the queued items into
// FIFO order, only when a push finds it full below `capacity` — so a
// queue that never backs up never pays for the slots its bound allows,
// and the ring never exceeds the bound. Otherwise the push/pop path moves
// values in and out of existing slots and never allocates (the
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
// concurrent consumer the mirror is exact. The bound is `capacity`, not
// the ring's current size: growth never changes when a push bounces or
// blocks.
//
// Shutdown protocol: close() flips the queue into draining mode — further
// pushes fail with kClosed (the caller is told; nothing is dropped
// silently) while pop_batch keeps handing out what was already accepted,
// so in-flight commands complete. `pushed()` is the producers-side
// watermark drain logic compares against the consumer's completion count.
#pragma once

#include <algorithm>
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

/// What one pop_batch saw under its lock: the items it took and the queue
/// depth before it took them.
struct QueuePop {
  std::size_t taken = 0;
  std::size_t depth = 0;
};

template <typename T>
class BoundedMpscQueue {
 public:
  /// Slots a fresh ring holds (fewer when `capacity` is smaller).
  static constexpr std::size_t kInitialSlots = 16;

  explicit BoundedMpscQueue(std::size_t capacity) : capacity_(capacity) {
    expects(capacity > 0, "BoundedMpscQueue capacity must be > 0");
    ring_.resize(std::min(capacity, kInitialSlots));
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
  /// not cleared). Returns how many it took and the depth it found, both
  /// read under one lock. Never blocks — the worker's parking/wakeup
  /// protocol lives with the worker, not the queue.
  CONFNET_HOT QueuePop pop_batch(std::vector<T>& out, std::size_t max) {
    QueuePop got;
    bool freed_space = false;
    {
      util::MutexLock lock(mu_);
      got.depth = size_;
      const bool was_full = size_ >= capacity_;
      while (got.taken < max && size_ > 0) {
        // static_check: allow(hot-alloc) `out` is the consumer's reused
        // burst buffer: it doubles to the largest burst seen, then recycles
        out.push_back(std::move(*ring_[head_]));
        ring_[head_].reset();
        head_ = next(head_);
        --size_;
        ++got.taken;
      }
      approx_size_.store(size_, std::memory_order_relaxed);
      freed_space = was_full && got.taken > 0;
    }
    if (freed_space) space_cv_.notify_all();
    return got;
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

  /// Slots the ring holds now: at most `capacity`, grown on demand.
  [[nodiscard]] std::size_t slots() const {
    util::MutexLock lock(mu_);
    return ring_.size();
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
  /// Move `item` into the tail slot, growing a full ring first. Caller
  /// holds mu_ and checked size_ < capacity_.
  CONFNET_HOT void place(T&& item) CONFNET_REQUIRES(mu_) {
    if (size_ == ring_.size()) {
      // Full ring (so tail_ == head_): rotate the oldest item into slot 0,
      // then double, capped at the bound.
      std::rotate(ring_.begin(),
                  ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                  ring_.end());
      // static_check: allow(hot-alloc) on-demand ring growth, at most
      // log2(capacity) times per queue lifetime
      ring_.resize(std::min(capacity_, 2 * size_));
      head_ = 0;
      tail_ = size_;
    }
    ring_[tail_] = std::move(item);
    tail_ = next(tail_);
    ++size_;
    approx_size_.store(size_, std::memory_order_relaxed);
    ++pushed_;
  }

  [[nodiscard]] std::size_t next(std::size_t slot) const
      CONFNET_REQUIRES(mu_) {
    return slot + 1 == ring_.size() ? 0 : slot + 1;
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
