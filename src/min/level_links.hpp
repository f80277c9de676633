// Link rows per level, stored flat: one `std::vector<u32>` holding
// levels()+1 offsets into itself, then the rows (level l's rows are the
// words [offset l, offset l+1)). A realization is one heap block whatever
// n is, and `links[level]` is a span over it.
//
// Every constructor builds a well-formed value (first offset = levels()+1,
// offsets non-decreasing, last offset = word count). `from_words` adopts
// any word vector unchecked, so code that must refuse malformed input
// (validate_realization) asks `well_formed()` before reading a level.
// Rows are stored as given: sortedness is the producer's contract.
#pragma once

#include <bit>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "min/types.hpp"
#include "util/error.hpp"

namespace confnet::min {

class LevelLinks {
 public:
  /// Zero levels (no words; every zero-level value compares equal).
  LevelLinks() = default;
  /// counts.size() levels, level l holding counts[l] zero rows; fill them
  /// through rows(level). One allocation, its capacity rounded up to a
  /// power of two, so a value reused as scratch (FabricState derives every
  /// group's rows into one; none is stored) regrows only O(log) times.
  explicit LevelLinks(std::span<const u32> counts) { reshape(counts); }
  /// Copy of nested per-level rows, e.g. {{0, 1}, {1}, {}} (3 levels).
  LevelLinks(std::initializer_list<std::initializer_list<u32>> levels)
      : words_(pack(levels)) {}
  explicit LevelLinks(const std::vector<std::vector<u32>>& levels)
      : words_(pack(levels)) {}
  /// Adopt raw words (offsets, then rows) without any check.
  [[nodiscard]] static LevelLinks from_words(std::vector<u32> words) {
    LevelLinks links;
    links.words_ = std::move(words);
    return links;
  }

  [[nodiscard]] u32 levels() const noexcept {
    return words_.empty() ? 0 : words_.front() - 1;
  }
  [[nodiscard]] std::span<const u32> operator[](u32 level) const noexcept {
    return {words_.data() + words_[level], words_[level + 1] - words_[level]};
  }
  [[nodiscard]] std::span<u32> rows(u32 level) noexcept {
    return {words_.data() + words_[level], words_[level + 1] - words_[level]};
  }
  /// Position of level's first row among all rows, levels concatenated in
  /// order; base(levels()) is the total row count.
  [[nodiscard]] std::size_t base(u32 level) const noexcept {
    return words_[level] - words_.front();
  }
  [[nodiscard]] const std::vector<u32>& words() const noexcept {
    return words_;
  }

  /// True iff the offsets describe the word vector. Rows are not read.
  [[nodiscard]] bool well_formed() const noexcept {
    if (words_.empty()) return true;
    const u32 first = words_.front();
    if (first < 1 || first > words_.size()) return false;
    for (u32 l = 1; l < first; ++l)
      if (words_[l] < words_[l - 1]) return false;
    return words_[first - 1] == words_.size();
  }

  /// Become counts.size() levels of counts[l] zero rows, as the counts
  /// constructor builds them, keeping the block when it is large enough:
  /// a reused value allocates nothing once it has held the largest shape.
  void reshape(std::span<const u32> counts) {
    words_.clear();
    if (counts.empty()) return;
    std::size_t total = counts.size() + 1;
    for (u32 c : counts) total += c;
    if (words_.capacity() < total) words_.reserve(std::bit_ceil(total));
    words_.assign(total, 0);
    words_[0] = static_cast<u32>(counts.size() + 1);
    for (std::size_t l = 0; l < counts.size(); ++l)
      words_[l + 1] = words_[l] + counts[l];
  }

  /// The rows as one vector per level.
  [[nodiscard]] std::vector<std::vector<u32>> nested() const {
    std::vector<std::vector<u32>> out;
    for (u32 l = 0; l < levels(); ++l)
      out.emplace_back((*this)[l].begin(), (*this)[l].end());
    return out;
  }

  friend bool operator==(const LevelLinks&, const LevelLinks&) = default;

 private:
  /// Offsets then rows for any range of row ranges.
  template <typename Levels>
  static std::vector<u32> pack(const Levels& levels) {
    if (levels.size() == 0) return {};
    std::vector<u32> words{static_cast<u32>(levels.size() + 1)};
    for (const auto& rows : levels)
      words.push_back(words.back() + static_cast<u32>(rows.size()));
    for (const auto& rows : levels)
      words.insert(words.end(), rows.begin(), rows.end());
    return words;
  }

  std::vector<u32> words_;
};

}  // namespace confnet::min
