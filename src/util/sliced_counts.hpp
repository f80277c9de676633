// Small per-index counters, bit-sliced, moved a whole aligned block at a
// time.
//
// A port cover (how many aligned blocks hold each port) is read and moved
// one aligned block at a time and stays small: the fabric keeps it at most
// its narrowest link capacity, buddy placement at most that capacity and
// never above four. So instead of a byte or word per port, bit k of every
// count is kept in plane k: 64 ports move by one with a ripple-carry of a
// few word operations per plane, a block's "any count equal to c" or "how
// many equal c" is a handful of masks and a popcount, the counts of a word
// equal to c are one such mask, and a count below 2^planes costs `planes`
// bits.
// An aligned block of a power-of-two size below 64 lies inside one word,
// and a larger one covers whole words.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/bits.hpp"
#include "util/error.hpp"

namespace confnet::util {

class SlicedCounts {
 public:
  SlicedCounts() = default;
  /// `size` counts, all zero, each held in `planes` bits.
  SlicedCounts(std::size_t size, u32 planes)
      : planes_(planes), words_((size + 63) / 64 * planes, 0) {}

  /// Move every count of the aligned block [first, first + len) up
  /// (`add`) or down by one. Each must stay within 0 .. 2^planes - 1.
  void step(std::size_t first, std::size_t len, bool add) {
    for_words(first, len, [&](std::size_t w, u64 carry) {
      u64* plane = words_.data() + w * planes_;
      for (u32 k = 0; k < planes_ && carry != 0; ++k) {
        const u64 ripple = (add ? plane[k] : ~plane[k]) & carry;
        plane[k] ^= carry;
        carry = ripple;
      }
    });
  }

  /// Counts of the aligned block [first, first + len) equal to `value`.
  [[nodiscard]] std::size_t count_equal(std::size_t first, std::size_t len,
                                        u32 value) const {
    std::size_t n = 0;
    for_words(first, len, [&](std::size_t w, u64 mask) {
      n += popcount(equal_mask(w, mask, value));
    });
    return n;
  }

  /// Whether some count of the aligned block equals `value`.
  [[nodiscard]] bool any_equal(std::size_t first, std::size_t len,
                               u32 value) const {
    bool any = false;
    for_words(first, len, [&](std::size_t w, u64 mask) {
      any = any || equal_mask(w, mask, value) != 0;
    });
    return any;
  }

  /// Whether some count exceeds `value`.
  [[nodiscard]] bool any_above(u32 value) const {
    if (planes_ < 32 && value >> planes_ != 0) return false;
    for (std::size_t w = 0; w < words_.size(); w += planes_) {
      // Bit-sliced comparison from the top plane down: `above` collects
      // the counts that exceed value, `equal` those equal to it so far.
      u64 above = 0;
      u64 equal = ~u64{0};
      for (u32 k = planes_; k-- > 0;) {
        const u64 plane = words_[w + k];
        if (((value >> k) & 1u) != 0) {
          equal &= plane;
        } else {
          above |= equal & plane;
          equal &= ~plane;
        }
      }
      if (above != 0) return true;
    }
    return false;
  }

  /// Of counts 64·w .. 64·w + 63, those equal to `value`, as bits: bit i
  /// for count 64·w + i.
  [[nodiscard]] u64 equal_bits(std::size_t w, u32 value) const {
    return equal_mask(w, ~u64{0}, value);
  }

  [[nodiscard]] u32 at(std::size_t i) const {
    const u64* plane = words_.data() + (i / 64) * planes_;
    u32 count = 0;
    for (u32 k = 0; k < planes_; ++k)
      count |= static_cast<u32>((plane[k] >> (i % 64)) & 1u) << k;
    return count;
  }

  /// Hold each count in `planes` bits from now on (no fewer than before),
  /// keeping every count.
  void widen(u32 planes) {
    if (planes <= planes_) return;
    std::vector<u64> wide(words_.size() / std::max(planes_, u32{1}) * planes, 0);
    for (std::size_t w = 0; w * planes_ < words_.size(); ++w)
      std::copy_n(words_.begin() + static_cast<std::ptrdiff_t>(w * planes_),
                  planes_, wide.begin() + static_cast<std::ptrdiff_t>(w * planes));
    words_ = std::move(wide);
    planes_ = planes;
  }

  void clear() noexcept { std::fill(words_.begin(), words_.end(), 0); }
  [[nodiscard]] bool all_zero() const noexcept {
    return std::all_of(words_.begin(), words_.end(),
                       [](u64 w) { return w == 0; });
  }

 private:
  /// fn(word, mask) for every word the aligned block touches, with the
  /// block's bits in `mask`.
  template <typename Fn>
  void for_words(std::size_t first, std::size_t len, Fn&& fn) const {
    if (len < 64) {
      expects((first & 63) + len <= 64, "SlicedCounts: block straddles");
      fn(first / 64, ((u64{1} << len) - 1) << (first & 63));
      return;
    }
    expects(first % 64 == 0 && len % 64 == 0,
            "SlicedCounts: a block beyond 64 needs whole words");
    for (std::size_t w = first / 64; w < (first + len) / 64; ++w)
      fn(w, ~u64{0});
  }

  /// The bits of `mask` whose count in word w equals `value`.
  [[nodiscard]] u64 equal_mask(std::size_t w, u64 mask, u32 value) const {
    const u64* plane = words_.data() + w * planes_;
    for (u32 k = 0; k < planes_; ++k)
      mask &= ((value >> k) & 1u) != 0 ? plane[k] : ~plane[k];
    return value >> planes_ == 0 ? mask : 0;
  }

  u32 planes_ = 0;
  std::vector<u64> words_;  // word w's planes at w * planes_ ...
};

}  // namespace confnet::util
