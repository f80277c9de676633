// Closed-form reachability windows for the studied class.
//
// A link (level,row) is reached from the sources whose bits match the
// row's source field and reaches the destinations whose bits match its
// destination field, so the windows are read straight off the kind's row
// layout (`min::KindLayout` in types.hpp): a field of an address's high
// (top) bits gives an aligned contiguous block, a field of its low bits a
// stride residue class. The window *shapes* per topology are the structural
// fact behind the conference-conflict results (DESIGN.md R1/R2) and are the
// content of experiment E1. `min_windows_test` asserts these formulas
// against the BFS-computed `WindowTable` (below) for every link of every
// topology.
#pragma once

#include <algorithm>
#include <vector>

#include "min/network.hpp"
#include "min/types.hpp"
#include "util/bitset.hpp"
#include "util/error.hpp"

namespace confnet::min {

enum class WindowShape : std::uint8_t {
  kBlock,   // aligned contiguous block {first .. first+size-1}
  kStride,  // residue class {first, first+stride, ...}, size elements
};

[[nodiscard]] constexpr std::string_view shape_name(WindowShape s) noexcept {
  return s == WindowShape::kBlock ? "block" : "stride";
}

/// A window as an arithmetic progression: {first + i*stride : 0 <= i < size}.
/// Blocks have stride 1 and an aligned first element.
struct WindowDesc {
  WindowShape shape;
  u32 first;
  u32 stride;
  u32 size;

  [[nodiscard]] constexpr bool contains(u32 x) const noexcept {
    if (x < first) return false;
    const u32 off = x - first;
    return off % stride == 0 && off / stride < size;
  }

  /// i-th smallest element.
  [[nodiscard]] constexpr u32 element(u32 i) const noexcept {
    return first + i * stride;
  }
};

/// Inputs that can reach link (level,row); |window| == 2^level.
[[nodiscard]] WindowDesc in_window(Kind kind, u32 n, u32 level, u32 row);

/// Outputs reachable from link (level,row); |window| == 2^(n-level).
[[nodiscard]] WindowDesc out_window(Kind kind, u32 n, u32 level, u32 row);

/// R1 (DESIGN.md): at most min(|In(level)|, |Out(level)|) = min(2^level,
/// 2^(n-level)) disjoint conferences (or multicasts, whose distinct sources
/// and disjoint receivers meet the same two windows) share one level-`level`
/// link, on every kind and under any placement. Full dilation provisions
/// exactly this many channels.
[[nodiscard]] constexpr u32 r1_bound(u32 n, u32 level) {
  expects(level <= n, "r1_bound: level <= n");
  return std::min(u32{1} << level, u32{1} << (n - level));
}

/// The port where a link's two windows meet when one is an aligned block
/// and the other a residue class modulo the block's size, as on every
/// interstage link of a kind without block-block windows: the class's one
/// port in the block. Each conference on the link has a member in both
/// windows, so its smallest enclosing aligned block holds this port
/// (DESIGN.md, the cover bound).
[[nodiscard]] constexpr u32 crossing_port(const WindowDesc& in,
                                          const WindowDesc& out) noexcept {
  const WindowDesc& block = in.stride == 1 ? in : out;
  const WindowDesc& residues = in.stride == 1 ? out : in;
  return block.first + residues.first % block.size;
}

/// True iff both of the topology's window families are aligned blocks
/// (baseline and flip). Such networks keep conference conflicts even under
/// aligned-block placement (result R2).
[[nodiscard]] bool has_block_block_windows(Kind kind) noexcept;

/// Explicit per-link reachability sets of one network, computed eagerly by
/// a forward and a backward sweep over its successor/predecessor hops: the
/// reference the closed-form windows above are checked against. It holds
/// 2(n+1)N bitsets of N bits (~2.9 MB at N=1024), so only its readers
/// (tests, the E1/E7 oracle rows, the `*_generic` twins) build one.
class WindowTable {
 public:
  explicit WindowTable(const Network& net);

  [[nodiscard]] const Network& network() const noexcept { return net_; }
  /// In(level,row): inputs that can reach the link. |In| == 2^level.
  [[nodiscard]] const util::DynBitset& in_set(u32 level, u32 row) const;
  /// Out(level,row): outputs reachable from the link. |Out| == 2^(n-level).
  [[nodiscard]] const util::DynBitset& out_set(u32 level, u32 row) const;

 private:
  Network net_;
  std::vector<util::DynBitset> in_;   // (n+1)*N entries, level-major
  std::vector<util::DynBitset> out_;
};

/// The path `Network::route_rows` computes, found topology-agnostically by
/// greedy descent over the table's output windows; the oracle for
/// destination-tag correctness.
[[nodiscard]] std::vector<u32> route_rows_generic(const WindowTable& wt,
                                                  u32 src, u32 dst);

}  // namespace confnet::min
