// Bit-manipulation primitives used by the multistage-network code: a bit of
// a port address, its bit reversal, a population count and the logarithms
// that size port blocks. Everything here is constexpr so topology math can
// run at compile time in tests.
#pragma once

#include <bit>
#include <cstdint>

#include "util/error.hpp"

namespace confnet::util {

using u32 = std::uint32_t;
using u64 = std::uint64_t;

/// Ceiling of log2 (log2_ceil(1) == 0).
constexpr u32 log2_ceil(u64 x) {
  expects(x >= 1, "log2_ceil requires x >= 1");
  return x == 1 ? 0u : static_cast<u32>(64 - std::countl_zero(x - 1));
}

/// Extract bit `i` of `x`.
constexpr u32 bit(u64 x, u32 i) noexcept { return static_cast<u32>((x >> i) & 1u); }

/// Reverse the low `n` bits of `x` (bit-reversal permutation).
constexpr u64 reverse_bits_n(u64 x, u32 n) noexcept {
  u64 r = 0;
  for (u32 i = 0; i < n; ++i) r |= u64{bit(x, i)} << (n - 1 - i);
  return r;
}

/// Population count.
constexpr u32 popcount(u64 x) noexcept { return static_cast<u32>(std::popcount(x)); }

/// Index of the highest set bit (undefined semantics avoided: throws on 0).
constexpr u32 highest_bit(u64 x) {
  expects(x != 0, "highest_bit requires x != 0");
  return static_cast<u32>(63 - std::countl_zero(x));
}

}  // namespace confnet::util
