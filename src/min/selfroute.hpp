// Closed-form self-routing: the row occupied at any level of the unique
// (src,dst) path, computed with a handful of bit operations and no network
// state. This is the "simpler self-routing algorithm" the paper's question
// asks about: a switch can derive its action locally from the address bits.
//
// `min_route_test` asserts these formulas equal Network::route_rows for
// every (src,dst,level) of every topology.
#pragma once

#include <vector>

#include "min/types.hpp"

namespace confnet::min {

/// Row occupied at `level` (0..n) by the unique path src -> dst.
[[nodiscard]] u32 path_row(Kind kind, u32 n, u32 src, u32 dst, u32 level);

/// All rows of the path, levels 0..n (equivalent to Network::route_rows but
/// allocation is the only non-O(1) cost per level).
[[nodiscard]] std::vector<u32> path_rows(Kind kind, u32 n, u32 src, u32 dst);

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
[[nodiscard]] RowParts row_parts(Kind kind, u32 n, u32 level);

}  // namespace confnet::min
