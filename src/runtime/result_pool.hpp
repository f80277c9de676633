// Slot-recycled arena for command completions (`runtime::ResultPool`).
//
// Runtime::call() allocates a shared promise/future pair per command —
// three heap allocations on the hottest producer path. The pool replaces
// that with fixed completion slots: a producer acquires a slot, hangs it
// on the command (`Command::slot`), the owner thread fulfills it in place,
// and `PooledResult::take()` hands the result back and recycles the slot.
// Steady-state churn allocates nothing — the pool grows only while the
// free list is empty (cold), and every vector involved recycles capacity
// (the `hot-alloc` static check covers acquire/release/fulfill).
//
// Thread-safety: thread-safe. The free list is guarded by the pool mutex.
// Each slot's producer/owner rendezvous is one 32-bit atomic state word
// (pending, asleep, ready): the producer spins on it for kSpinBudget
// (runtime/spin.hpp), then marks it asleep and sleeps in
// std::atomic::wait; fulfill publishes the result with one exchange and
// calls notify_one only when the producer had gone to sleep, so a
// producer still spinning costs the worker no syscall. Slot addresses are
// stable for the pool's lifetime (slots are held by unique_ptr), so a raw
// `ResultSlot*` stays valid across the hand-off, and a late notify_one on
// a slot that was already recycled is only a spurious wake-up.
//
// Ownership protocol (see docs/THREADING.md): between acquire and fulfill
// the slot is shared by exactly two parties — the producer holding the
// PooledResult and the worker holding the Command. The worker's fulfill is
// its last touch; the producer releases the slot back to the free list
// from take() (or from ~PooledResult, which waits for fulfill first so a
// recycled slot can never be fulfilled by a stale command).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "min/types.hpp"
#include "runtime/command.hpp"
#include "runtime/spin.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace confnet::runtime {

class ResultPool;

/// One pooled completion rendezvous. Producers never construct these —
/// they come from ResultPool::acquire via Runtime::call_pooled.
class ResultSlot {
 public:
  ResultSlot() = default;
  ResultSlot(const ResultSlot&) = delete;
  ResultSlot& operator=(const ResultSlot&) = delete;

  /// Owner-thread side: publish the result and wake the producer if it is
  /// asleep. Called exactly once per acquire (by the worker after apply,
  /// or inline by the submit path on kRejectedStopped).
  CONFNET_HOT void fulfill(CommandResult&& result) {
    result_ = std::move(result);
    if (state_.exchange(kReady, std::memory_order_acq_rel) == kAsleep)
      state_.notify_one();
  }

  /// Producer side: wait until fulfilled, move the result out. The slot
  /// stays acquired — PooledResult::take releases it afterwards.
  CONFNET_HOT CommandResult wait_take() {
    wait_ready();
    return std::move(result_);
  }

 private:
  friend class ResultPool;
  friend class PooledResult;

  static constexpr std::uint32_t kPending = 0;  // acquired, not fulfilled
  static constexpr std::uint32_t kAsleep = 1;   // producer sleeps on state_
  static constexpr std::uint32_t kReady = 2;    // result_ is published

  /// Re-arm for the next acquire. Pool-side, pre-hand-off: no concurrency.
  void reset() { state_.store(kPending, std::memory_order_relaxed); }

  /// Spin, then sleep, until fulfill has published. Only fulfill moves the
  /// state off kPending besides this waiter, so a change seen while
  /// spinning, or a failed move to kAsleep, means kReady.
  void wait_ready() {
    if (spin_until_changed(state_, kPending)) return;
    std::uint32_t seen = kPending;
    if (state_.compare_exchange_strong(seen, kAsleep,
                                       std::memory_order_acquire))
      state_.wait(kAsleep, std::memory_order_acquire);
  }

  // Written by fulfill before its release exchange; read by the producer
  // after an acquire load of kReady. state_ orders every access.
  CommandResult result_;                  // runtime-owner: caller
  std::atomic<std::uint32_t> state_{kPending};  // runtime-owner: atomic
};

/// Move-only handle to an acquired slot. Destroying an unfinished handle
/// waits for the fulfill, so a slot is never recycled while a command in
/// flight still points at it.
class PooledResult {
 public:
  PooledResult() = default;
  PooledResult(PooledResult&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)),
        slot_(std::exchange(other.slot_, nullptr)) {}
  PooledResult& operator=(PooledResult&& other) noexcept {
    if (this != &other) {
      settle();
      pool_ = std::exchange(other.pool_, nullptr);
      slot_ = std::exchange(other.slot_, nullptr);
    }
    return *this;
  }
  ~PooledResult() { settle(); }

  PooledResult(const PooledResult&) = delete;
  PooledResult& operator=(const PooledResult&) = delete;

  /// Block until the command completes, return its result, recycle the
  /// slot. One-shot: the handle is empty afterwards.
  CommandResult take();

  [[nodiscard]] bool valid() const noexcept { return slot_ != nullptr; }

 private:
  friend class ResultPool;
  friend class Runtime;
  PooledResult(ResultPool* pool, ResultSlot* slot)
      : pool_(pool), slot_(slot) {}

  /// Abandoned handle: wait out the in-flight fulfill, then recycle.
  void settle();

  ResultPool* pool_ = nullptr;  // runtime-owner: caller
  ResultSlot* slot_ = nullptr;  // runtime-owner: caller
};

/// The arena. Owned by the Runtime; producers share it through
/// call_pooled. Slots live as long as the pool.
class ResultPool {
 public:
  ResultPool() = default;

  ResultPool(const ResultPool&) = delete;
  ResultPool& operator=(const ResultPool&) = delete;

  /// Take a recycled slot (steady state: one lock round-trip, no
  /// allocation) or grow by one slot when the free list is dry (cold).
  CONFNET_HOT ResultSlot* acquire();

  /// Return a fulfilled slot to the free list. Called by PooledResult.
  CONFNET_HOT void release(ResultSlot* slot);

  /// Slots ever created (high-water mark of concurrent commands in
  /// flight through the pool).
  [[nodiscard]] std::size_t slots() const;

 private:
  mutable util::Mutex mu_;  // runtime-owner: lock
  std::vector<std::unique_ptr<ResultSlot>> slots_ CONFNET_GUARDED_BY(mu_);
  std::vector<ResultSlot*> free_ CONFNET_GUARDED_BY(mu_);
};

}  // namespace confnet::runtime
