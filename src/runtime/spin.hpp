// Bounded spin for the runtime's two hand-off waits: a producer waiting
// for its ResultSlot and a worker about to park.
//
// Thread-safe: spin_until_changed only loads the caller's atomic.
//
// An empty round trip through the runtime costs a few microseconds when
// neither side sleeps; a futex sleep plus a cross-CPU wake-up costs about
// as much again on each side. So both waits first poll their 32-bit word
// for kSpinBudget of wall time and only then sleep in std::atomic::wait.
// The budget is a measured choice (EXPERIMENTS.md, "Lean runtime
// hand-off"), and it is the only tuning constant of the hand-off.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace confnet::runtime {

/// Wall time a waiter polls before it sleeps.
inline constexpr std::chrono::nanoseconds kSpinBudget{8000};

/// Poll `word` until it differs from `idle` or kSpinBudget has passed.
/// Returns true when the word changed (an acquire load saw it).
inline bool spin_until_changed(const std::atomic<std::uint32_t>& word,
                               std::uint32_t idle) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = Clock::now() + kSpinBudget;
  for (;;) {
    // A few polls per clock read: a pause is tens of cycles, a read of the
    // vDSO clock about twenty nanoseconds.
    for (int i = 0; i < 8; ++i) {
      if (word.load(std::memory_order_acquire) != idle) return true;
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#elif defined(__aarch64__)
      asm volatile("yield");
#endif
    }
    if (Clock::now() >= deadline) return false;
  }
}

}  // namespace confnet::runtime
