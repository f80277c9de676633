// Wall-clock timing helpers for the bench binaries.
#pragma once

#include <chrono>
#include <cstdint>

namespace confnet::bench {

/// Monotonic timestamp in nanoseconds.
[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Measures elapsed wall time from construction.
class Stopwatch {
 public:
  Stopwatch() : start_(now_ns()) {}
  void reset() noexcept { start_ = now_ns(); }
  [[nodiscard]] std::int64_t elapsed_ns() const noexcept {
    return now_ns() - start_;
  }
  [[nodiscard]] double elapsed_ms() const noexcept {
    return static_cast<double>(elapsed_ns()) / 1e6;
  }

 private:
  std::int64_t start_;
};

}  // namespace confnet::bench
