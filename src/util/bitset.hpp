// Dynamic bitset tuned for reachability-window computations.
//
// The MIN window analysis stores one `DynBitset` of N bits per link
// (N*(n+1) links total) and combines them with AND/OR; the conference
// subnetwork computation tests window/group intersections millions of times
// in the Monte-Carlo sweeps, so intersection tests avoid materializing
// temporaries.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/bits.hpp"
#include "util/error.hpp"

namespace confnet::util {

class DynBitset {
 public:
  DynBitset() = default;

  explicit DynBitset(std::size_t nbits, bool value = false)
      : nbits_(nbits), words_((nbits + 63) / 64, value ? ~u64{0} : 0) {
    trim();
  }

  [[nodiscard]] std::size_t size() const noexcept { return nbits_; }

  void set(std::size_t i) {
    expects(i < nbits_, "DynBitset::set out of range");
    words_[i >> 6] |= (u64{1} << (i & 63));
  }

  void reset(std::size_t i) {
    expects(i < nbits_, "DynBitset::reset out of range");
    words_[i >> 6] &= ~(u64{1} << (i & 63));
  }

  void clear() noexcept {
    for (auto& w : words_) w = 0;
  }

  [[nodiscard]] bool test(std::size_t i) const {
    expects(i < nbits_, "DynBitset::test out of range");
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  [[nodiscard]] bool any() const noexcept {
    for (auto w : words_)
      if (w != 0) return true;
    return false;
  }

  [[nodiscard]] bool none() const noexcept { return !any(); }

  [[nodiscard]] std::size_t count() const noexcept {
    std::size_t c = 0;
    for (auto w : words_) c += popcount(w);
    return c;
  }

  DynBitset& operator|=(const DynBitset& o) {
    expects(nbits_ == o.nbits_, "DynBitset size mismatch");
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
    return *this;
  }

  DynBitset& operator&=(const DynBitset& o) {
    expects(nbits_ == o.nbits_, "DynBitset size mismatch");
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
    return *this;
  }

  DynBitset& operator^=(const DynBitset& o) {
    expects(nbits_ == o.nbits_, "DynBitset size mismatch");
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= o.words_[i];
    return *this;
  }

  friend DynBitset operator|(DynBitset a, const DynBitset& b) { return a |= b; }
  friend DynBitset operator&(DynBitset a, const DynBitset& b) { return a &= b; }
  friend DynBitset operator^(DynBitset a, const DynBitset& b) { return a ^= b; }

  friend bool operator==(const DynBitset& a, const DynBitset& b) {
    return a.nbits_ == b.nbits_ && a.words_ == b.words_;
  }

  /// True iff this and `o` share at least one set bit (no temporary).
  [[nodiscard]] bool intersects(const DynBitset& o) const {
    expects(nbits_ == o.nbits_, "DynBitset size mismatch");
    for (std::size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & o.words_[i]) return true;
    return false;
  }

  /// True iff every set bit of this is also set in `o`.
  [[nodiscard]] bool is_subset_of(const DynBitset& o) const {
    expects(nbits_ == o.nbits_, "DynBitset size mismatch");
    for (std::size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & ~o.words_[i]) return false;
    return true;
  }

  /// True iff a bit of [first, first + count) is set.
  [[nodiscard]] bool any_in(std::size_t first, std::size_t count) const {
    bool found = false;
    for_range(first, count, [&](std::size_t wi, u64 mask) {
      found = found || (words_[wi] & mask) != 0;
    });
    return found;
  }

  /// Set (`value`) or clear every bit of [first, first + count).
  void assign_range(std::size_t first, std::size_t count, bool value) {
    for_range(first, count, [&](std::size_t wi, u64 mask) {
      if (value)
        words_[wi] |= mask;
      else
        words_[wi] &= ~mask;
    });
  }

  /// Index of the lowest set bit, or size() when empty.
  [[nodiscard]] std::size_t find_first() const noexcept {
    for (std::size_t wi = 0; wi < words_.size(); ++wi)
      if (words_[wi] != 0)
        return wi * 64 + static_cast<std::size_t>(std::countr_zero(words_[wi]));
    return nbits_;
  }

  /// Index of the next set bit strictly after `i`, or size() when none.
  [[nodiscard]] std::size_t find_next(std::size_t i) const noexcept {
    ++i;
    if (i >= nbits_) return nbits_;
    std::size_t wi = i >> 6;
    u64 w = words_[wi] & (~u64{0} << (i & 63));
    while (true) {
      if (w != 0)
        return wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
      if (++wi == words_.size()) return nbits_;
      w = words_[wi];
    }
  }

  /// Invoke `fn(index)` for every set bit in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      u64 w = words_[wi];
      while (w != 0) {
        const auto b = static_cast<std::size_t>(std::countr_zero(w));
        fn(wi * 64 + b);
        w &= w - 1;
      }
    }
  }

  /// Materialize the set bits as a vector of indices.
  [[nodiscard]] std::vector<std::uint32_t> to_indices() const {
    std::vector<std::uint32_t> out;
    out.reserve(count());
    for_each([&](std::size_t i) { out.push_back(static_cast<std::uint32_t>(i)); });
    return out;
  }

 private:
  /// Invoke fn(word index, mask of that word's bits in [first, first +
  /// count)) for every word the range touches, in order.
  template <typename Fn>
  void for_range(std::size_t first, std::size_t count, Fn&& fn) const {
    expects(first <= nbits_ && count <= nbits_ - first,
            "DynBitset range out of range");
    const std::size_t end = first + count;
    while (first < end) {
      const std::size_t lo = first & 63;
      const std::size_t width = std::min<std::size_t>(64 - lo, end - first);
      const u64 ones = width == 64 ? ~u64{0} : (u64{1} << width) - 1;
      fn(first >> 6, ones << lo);
      first += width;
    }
  }

  void trim() noexcept {
    if (nbits_ % 64 != 0 && !words_.empty())
      words_.back() &= (u64{1} << (nbits_ % 64)) - 1;
  }

  std::size_t nbits_ = 0;
  std::vector<u64> words_;
};

}  // namespace confnet::util
