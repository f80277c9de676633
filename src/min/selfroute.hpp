// Closed-form self-routing: the row occupied at any level of the unique
// (src,dst) path, computed with a handful of bit operations and no network
// state. This is the "simpler self-routing algorithm" the paper's question
// asks about: a switch can derive its action locally from the address bits.
//
// Both forms read the kind's row layout (`min::KindLayout` in types.hpp):
// the level-l row is a source field beside a destination field. The
// `min_route_test` suite asserts these formulas equal Network::route_rows
// for every (src,dst,level) of every topology.
#pragma once

#include <span>
#include <vector>

#include "min/level_links.hpp"
#include "min/types.hpp"
#include "util/error.hpp"

namespace confnet::min {

/// One bit field of a level row: extracted from an address as
/// ((addr >> shift_in) & mask) << shift_out.
struct PartField {
  u32 shift_in = 0;
  u32 mask = 0;
  u32 shift_out = 0;

  [[nodiscard]] constexpr u32 apply(u32 addr) const noexcept {
    return ((addr >> shift_in) & mask) << shift_out;
  }
};

/// The source/destination bit-field decomposition of a level's rows:
///   path_row(kind, n, s, d, level) == src.apply(s) | dst.apply(d)
/// with the two fields occupying disjoint bit positions. This is the
/// hoisted-out-of-the-loop form of path_row used by the allocation-free
/// multiplicity kernel; `min_route_test` asserts the identity for every
/// (kind, level, src, dst) at n <= 6.
struct RowParts {
  PartField src;
  PartField dst;
};
[[nodiscard]] constexpr RowParts row_parts(Kind kind, u32 n, u32 level) {
  expects(n >= 1 && n <= 20, "row_parts: 1 <= n <= 20");
  expects(level <= n, "row_parts: level <= n");
  const KindLayout& k = layout(kind);
  const u32 l = level;
  // The source contributes n-l bits, the destination l bits (each mask is 0
  // at the degenerate end levels); whichever field sits on top is shifted
  // past the other one.
  return RowParts{
      {k.src_high ? l : 0, (u32{1} << (n - l)) - 1, k.src_on_top ? l : 0},
      {k.dst_top ? n - l : 0, (u32{1} << l) - 1, k.src_on_top ? 0 : n - l}};
}

/// Row occupied at `level` (0..n) by the unique path src -> dst.
[[nodiscard]] constexpr u32 path_row(Kind kind, u32 n, u32 src, u32 dst,
                                     u32 level) {
  const RowParts parts = row_parts(kind, n, level);
  expects(src < (u32{1} << n) && dst < (u32{1} << n),
          "path_row: endpoints out of range");
  return parts.src.apply(src) | parts.dst.apply(dst);
}

/// The union of the unique paths from every source to every sink, written
/// into `links` (n+1 levels, LevelLinks::reshape) with `parts` as scratch:
/// level l <= last holds { src_part(i) | dst_part(j) } (row_parts), and
/// the levels above `last` are empty (a realization cut at a relay tap).
/// The two fields are disjoint, so each pair of distinct parts is a
/// distinct row; enumerating the upper field's parts in the outer loop
/// emits every level's rows sorted. A field of an address's top bits is
/// monotone in a sorted endpoint list, so its parts need no sort. A caller
/// that keeps `links` and `parts` allocates only when a union outgrows
/// every earlier one.
void path_union(Kind kind, u32 n, std::span<const u32> sources,
                std::span<const u32> sinks, u32 last, LevelLinks& links,
                std::vector<u32>& parts);

/// Mux-relay tap level of an indirect-cube conference on sorted
/// `members`: the number of low address bits in which they disagree. From
/// that level on, every member's own row carries every member's signal.
[[nodiscard]] u32 cube_tap_level(std::span<const u32> members);

/// All rows of the path, levels 0..n (equivalent to Network::route_rows but
/// allocation is the only non-O(1) cost per level).
[[nodiscard]] std::vector<u32> path_rows(Kind kind, u32 n, u32 src, u32 dst);

}  // namespace confnet::min
