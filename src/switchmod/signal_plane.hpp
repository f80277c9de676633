// Structure-of-arrays signal plane for vectorized propagation.
//
// `FabricState::propagate` used to carry one `MemberSet` (a sorted
// std::vector<u32>) per occupied link and merge them with set_union — an
// allocation and a branchy merge per fan-in. The signal plane replaces
// that layout: each link the group occupies gets a fixed-width bitset row
// (bit i = "member group.members[i] has been heard"), padded to the
// 256-bit SIMD block (util/simd.hpp), with all rows of all levels packed
// contiguously in one arena. Fan-in becomes an OR of two rows, the
// delivery check becomes an equality probe against the precomputed
// full-member mask row, and every sweep is a util::simd kernel call.
//
// Lifecycle: `begin_group` sizes the arena for one group's realization
// (levels 0..n, links[level].size() rows each, plus the mask row), zeroes
// the used region and the per-row live flags, and builds the mask. The
// arena grows monotonically and is reused across groups, so steady-state
// propagation performs no allocation. The row/flag accessors are the
// per-link hot path and are CONFNET_HOT: allocation-free by contract,
// enforced by tools/static_check.py.
//
// Neighbour lookup uses a dense row -> position scratch of two halves of N
// entries, one per level parity: `index_level` records where each of a
// level's rows sits in links[level], `position` reads it back (kAbsent for
// rows the group does not use), and `unindex_level` wipes exactly the
// entries it wrote. A sweep therefore keeps two adjacent levels indexed at
// a time and leaves the scratch all-kAbsent when it is done.
//
// A SignalPlane holds scratch for ONE group at a time — exactly the shape
// `FabricState::propagate` needs, since signals only mix within a group's
// own links.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/simd.hpp"
#include "util/thread_annotations.hpp"

namespace confnet::sw {

class SignalPlane {
 public:
  using u32 = std::uint32_t;
  using u64 = std::uint64_t;

  /// `position` of a row the indexed level does not use.
  static constexpr u32 kAbsent = 0xffffffffu;

  /// Size and zero the plane for one group: one row per occupied link
  /// (links[level] as in GroupRealization, levels 0..n) plus the mask row
  /// with bits 0..member_bits-1 set, and a position scratch for rows
  /// 0..row_count-1. Reuses the arena and the scratch; only grows them.
  void begin_group(const std::vector<std::vector<u32>>& links,
                   std::size_t member_bits, u32 row_count);

  /// Record the position of every row of `rows` (links[level]).
  CONFNET_HOT void index_level(u32 level,
                               const std::vector<u32>& rows) noexcept {
    u32* pos = positions(level);
    for (std::size_t i = 0; i < rows.size(); ++i)
      pos[rows[i]] = static_cast<u32>(i);
  }
  /// Undo index_level(level, rows).
  CONFNET_HOT void unindex_level(u32 level,
                                 const std::vector<u32>& rows) noexcept {
    u32* pos = positions(level);
    for (u32 row : rows) pos[row] = kAbsent;
  }
  /// Index of `row` in the indexed links[level], or kAbsent.
  [[nodiscard]] CONFNET_HOT u32 position(u32 level, u32 row) const noexcept {
    return pos_[(level & 1) * pos_stride_ + row];
  }

  /// Row of the i-th occupied link at `level` (index into links[level]).
  [[nodiscard]] CONFNET_HOT u64* row(u32 level, u32 i) noexcept {
    return arena_.data() +
           static_cast<std::size_t>(level_offset_[level] + i) * words_;
  }
  [[nodiscard]] CONFNET_HOT const u64* row(u32 level, u32 i) const noexcept {
    return arena_.data() +
           static_cast<std::size_t>(level_offset_[level] + i) * words_;
  }

  /// A link is live once a signal reached it (set by the fan-in sweep;
  /// level-0 rows are live on injection). Faulty links never become live.
  [[nodiscard]] CONFNET_HOT bool live(u32 level, u32 i) const noexcept {
    return live_[level_offset_[level] + i] != 0;
  }
  CONFNET_HOT void mark_live(u32 level, u32 i) noexcept {
    live_[level_offset_[level] + i] = 1;
  }

  /// Words per row (a multiple of util::simd::kBlockWords).
  [[nodiscard]] CONFNET_HOT std::size_t words() const noexcept {
    return words_;
  }

  /// The full-member row: bits 0..member_bits-1 set. A delivered row equals
  /// this iff the output heard the whole conference.
  [[nodiscard]] CONFNET_HOT const u64* mask_row() const noexcept {
    return arena_.data() + mask_offset_;
  }

 private:
  std::vector<u64> arena_;          // all rows + the mask row, contiguous
  std::vector<u32> level_offset_;   // row index of links[level][0]
  std::vector<std::uint8_t> live_;  // per-row signal-arrived flags
  std::size_t words_ = 0;           // words per row
  std::size_t mask_offset_ = 0;     // word offset of the mask row
  std::vector<u32> pos_;            // two halves of pos_stride_ positions
  std::size_t pos_stride_ = 0;      // rows per half

  [[nodiscard]] u32* positions(u32 level) noexcept {
    return pos_.data() + (level & 1) * pos_stride_;
  }
};

}  // namespace confnet::sw
