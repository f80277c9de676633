// Hierarchical occupancy bitmap for high-churn allocators.
//
// The admission fast path (conf::FastPortPlacer) keeps one bit per port
// and needs three queries orders of magnitude more often than anything
// else: "lowest free", "next free at or after i", and "rank-th free". A
// flat bitset answers each in O(N/64) word scans; this index layers
// summary bitmaps on top (bit w of level k+1 = "word w of level k is
// nonzero") plus per-4096-bit popcount blocks, so every query touches a
// constant number of words for N <= 2^20 while set/reset stay a handful
// of stores. Unlike DynBitset (windows algebra: AND/OR over whole sets)
// this class is tuned for single-bit churn.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/thread_annotations.hpp"

namespace confnet::util {

class HierBitset {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  HierBitset() = default;

  explicit HierBitset(std::size_t nbits, bool all_set = false)
      : nbits_(nbits), words_((nbits + 63) / 64, all_set ? ~u64{0} : 0) {
    if (all_set && nbits_ % 64 != 0 && !words_.empty())
      words_.back() &= (u64{1} << (nbits_ % 64)) - 1;
    std::size_t level_words = words_.size();
    while (level_words > 64) {
      level_words = (level_words + 63) / 64;
      sums_.emplace_back(level_words, 0);
    }
    block_cnt_.assign((words_.size() + 63) / 64, 0);
    if (all_set) {
      count_ = nbits_;
      for (std::size_t wi = 0; wi < words_.size(); ++wi) {
        block_cnt_[wi >> 6] += popcount(words_[wi]);
        for (std::size_t k = 0, pos = wi; k < sums_.size(); ++k, pos >>= 6)
          sums_[k][pos >> 6] |= u64{1} << (pos & 63);
      }
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return nbits_; }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  CONFNET_HOT [[nodiscard]] bool test(std::size_t i) const {
    expects(i < nbits_, "HierBitset::test out of range");
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Bits 64·wi .. 64·wi + 63, bit i of the word for index 64·wi + i.
  [[nodiscard]] u64 word(std::size_t wi) const { return words_[wi]; }

  /// Set bit `i` (must currently be clear — churn callers never re-set).
  CONFNET_HOT void set(std::size_t i) {
    expects(i < nbits_, "HierBitset::set out of range");
    u64& w = words_[i >> 6];
    expects(((w >> (i & 63)) & 1u) == 0, "HierBitset::set of a set bit");
    w |= u64{1} << (i & 63);
    ++count_;
    ++block_cnt_[i >> 12];
    for (std::size_t k = 0, pos = i >> 6; k < sums_.size(); ++k, pos >>= 6)
      sums_[k][pos >> 6] |= u64{1} << (pos & 63);
  }

  /// Clear bit `i` (must currently be set).
  CONFNET_HOT void reset(std::size_t i) {
    expects(i < nbits_, "HierBitset::reset out of range");
    u64& w = words_[i >> 6];
    expects(((w >> (i & 63)) & 1u) != 0, "HierBitset::reset of a clear bit");
    w &= ~(u64{1} << (i & 63));
    --count_;
    --block_cnt_[i >> 12];
    // Propagate emptiness upward; stop at the first still-nonzero level.
    if (w != 0) return;
    for (std::size_t k = 0, pos = i >> 6; k < sums_.size(); ++k, pos >>= 6) {
      sums_[k][pos >> 6] &= ~(u64{1} << (pos & 63));
      if (sums_[k][pos >> 6] != 0) break;
    }
  }

  /// Index of the lowest set bit, or npos when empty.
  CONFNET_HOT [[nodiscard]] std::size_t find_first() const noexcept {
    if (count_ == 0) return npos;
    // top_scan returns a bit position at the top summary level (= a word
    // index one level below), so the descent visits sums_[size-2] .. sums_[0].
    std::size_t wi = top_scan_first();
    for (std::size_t k = sums_.size(); k-- > 1;)
      wi = wi * 64 +
           static_cast<std::size_t>(std::countr_zero(sums_[k - 1][wi]));
    return wi * 64 + static_cast<std::size_t>(std::countr_zero(words_[wi]));
  }

  /// Lowest set bit with index >= i, or npos when none.
  CONFNET_HOT [[nodiscard]] std::size_t find_first_at_least(
      std::size_t i) const noexcept {
    if (i >= nbits_) return npos;
    std::size_t wi = i >> 6;
    const u64 w = words_[wi] & (~u64{0} << (i & 63));
    if (w != 0)
      return wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
    wi = next_word_after(wi);
    if (wi == npos) return npos;
    return wi * 64 + static_cast<std::size_t>(std::countr_zero(words_[wi]));
  }

  /// Index of the rank-th set bit in ascending order (rank < count()).
  CONFNET_HOT [[nodiscard]] std::size_t select(std::size_t rank) const {
    expects(rank < count_, "HierBitset::select rank out of range");
    // 4096-bit blocks first (block_cnt_ is a flat popcount array), then the
    // level-0 summary word picks nonzero leaf words inside the block.
    std::size_t block = 0;
    while (rank >= block_cnt_[block]) rank -= block_cnt_[block++];
    u64 nonzero = sums_.empty() ? 0 : sums_[0][block];
    std::size_t wi = block * 64;
    if (nonzero == 0) {
      // No summary level (tiny set): scan the block's leaf words directly.
      while (true) {
        const u32 c = popcount(words_[wi]);
        if (rank < c) break;
        rank -= c;
        ++wi;
      }
    } else {
      while (true) {
        const auto b = static_cast<std::size_t>(std::countr_zero(nonzero));
        const u32 c = popcount(words_[block * 64 + b]);
        if (rank < c) {
          wi = block * 64 + b;
          break;
        }
        rank -= c;
        nonzero &= nonzero - 1;
      }
    }
    u64 w = words_[wi];
    while (rank > 0) {
      w &= w - 1;
      --rank;
    }
    return wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
  }

 private:
  /// Word index of the first nonzero word at the top level, mapped through
  /// nothing (the caller descends). Top level is <= 64 words by
  /// construction, so a linear scan is constant work.
  [[nodiscard]] std::size_t top_scan_first() const noexcept {
    const std::vector<u64>& top = sums_.empty() ? words_ : sums_.back();
    std::size_t wi = 0;
    while (top[wi] == 0) ++wi;
    if (sums_.empty()) return wi;
    return wi * 64 + static_cast<std::size_t>(std::countr_zero(top[wi]));
  }

  /// Smallest leaf-word index > wi whose word is nonzero, or npos. Ascends
  /// the summary levels masking already-visited bits, then descends.
  [[nodiscard]] std::size_t next_word_after(std::size_t wi) const noexcept {
    std::size_t pos = wi;  // bit position at sums_[level]
    for (std::size_t level = 0;; ++level) {
      if (level == sums_.size()) {
        // Ran off the summary chain: `pos` is a word index into the top
        // vector (the leaves when there are no summaries), and that word
        // has already been checked — scan strictly subsequent words.
        const std::vector<u64>& top = sums_.empty() ? words_ : sums_.back();
        std::size_t tw = pos;
        u64 m = 0;
        while (m == 0) {
          if (++tw >= top.size()) return npos;
          m = top[tw];
        }
        if (sums_.empty()) return tw;
        std::size_t down =
            tw * 64 + static_cast<std::size_t>(std::countr_zero(m));
        for (std::size_t k = sums_.size() - 1; k-- > 0;)
          down = down * 64 +
                 static_cast<std::size_t>(std::countr_zero(sums_[k][down]));
        return down;
      }
      const std::size_t sw = pos >> 6;
      const u64 m = sums_[level][sw] & high_mask(pos & 63);
      if (m != 0) {
        std::size_t down =
            sw * 64 + static_cast<std::size_t>(std::countr_zero(m));
        for (std::size_t k = level; k-- > 0;)
          down = down * 64 +
                 static_cast<std::size_t>(std::countr_zero(sums_[k][down]));
        return down;
      }
      pos = sw;
    }
  }

  /// Bits strictly above position b of a word.
  [[nodiscard]] static u64 high_mask(std::size_t b) noexcept {
    return b == 63 ? 0 : (~u64{0} << (b + 1));
  }

  std::size_t nbits_ = 0;
  std::size_t count_ = 0;
  std::vector<u64> words_;               // leaf: one bit per element
  std::vector<std::vector<u64>> sums_;   // sums_[k+1] summarizes sums_[k]
  std::vector<u32> block_cnt_;           // set bits per 4096-bit block
};

}  // namespace confnet::util
