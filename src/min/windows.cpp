#include "min/windows.hpp"

#include "min/selfroute.hpp"
#include "util/error.hpp"

namespace confnet::min {

namespace {
void check_args(u32 n, u32 level, u32 row) {
  expects(n >= 1 && n <= 20, "window: 1 <= n <= 20");
  expects(level <= n, "window: level <= n");
  expects(row < (u32{1} << n), "window: row < N");
}

/// The addresses whose `field` bits match the ones `row` holds: `size`
/// elements `stride` apart. A field of high (top) address bits gives a
/// block, stride 1; a field of low bits a residue class, which degenerates
/// to a block at the full-period end level.
WindowDesc kept_window(PartField field, u32 row, u32 stride, u32 size) {
  const u32 first = ((row >> field.shift_out) & field.mask) << field.shift_in;
  return WindowDesc{stride == 1 ? WindowShape::kBlock : WindowShape::kStride,
                    first, stride, size};
}
}  // namespace

WindowDesc in_window(Kind kind, u32 n, u32 level, u32 row) {
  check_args(n, level, row);
  return kept_window(row_parts(kind, n, level).src, row,
                     layout(kind).src_high ? 1 : u32{1} << (n - level),
                     u32{1} << level);
}

WindowDesc out_window(Kind kind, u32 n, u32 level, u32 row) {
  check_args(n, level, row);
  return kept_window(row_parts(kind, n, level).dst, row,
                     layout(kind).dst_top ? 1 : u32{1} << level,
                     u32{1} << (n - level));
}

bool has_block_block_windows(Kind kind) noexcept {
  return layout(kind).src_high && layout(kind).dst_top;
}

WindowTable::WindowTable(const Network& net)
    : net_(net),
      in_(std::size_t{net.n() + 1} * net.size(), util::DynBitset(net.size())),
      out_(in_) {
  const u32 N = net_.size();
  const u32 n = net_.n();
  const auto at = [N](u32 level, u32 row) {
    return static_cast<std::size_t>(level) * N + row;
  };
  // Forward pass: inputs reaching each link.
  for (u32 p = 0; p < N; ++p) in_[at(0, p)].set(p);
  for (u32 level = 0; level < n; ++level) {
    const StageSpec stage = net_.stage(level);
    for (u32 p = 0; p < N; ++p)
      for (u32 q : stage.successors(p))
        in_[at(level + 1, q)] |= in_[at(level, p)];
  }
  // Backward pass: outputs reachable from each link.
  for (u32 p = 0; p < N; ++p) out_[at(n, p)].set(p);
  for (u32 level = n; level >= 1; --level) {
    const StageSpec stage = net_.stage(level - 1);
    for (u32 p = 0; p < N; ++p)
      for (u32 q : stage.predecessors(p))
        out_[at(level - 1, q)] |= out_[at(level, p)];
  }
}

const util::DynBitset& WindowTable::in_set(u32 level, u32 row) const {
  expects(level <= net_.n() && row < net_.size(),
          "WindowTable::in_set out of range");
  return in_[static_cast<std::size_t>(level) * net_.size() + row];
}

const util::DynBitset& WindowTable::out_set(u32 level, u32 row) const {
  expects(level <= net_.n() && row < net_.size(),
          "WindowTable::out_set out of range");
  return out_[static_cast<std::size_t>(level) * net_.size() + row];
}

std::vector<u32> route_rows_generic(const WindowTable& wt, u32 src, u32 dst) {
  const Network& net = wt.network();
  expects(src < net.size() && dst < net.size(),
          "route endpoints out of range");
  std::vector<u32> rows(net.n() + 1);
  rows[0] = src;
  u32 r = src;
  for (u32 level = 0; level < net.n(); ++level) {
    const auto next = net.successors(level, r);
    const bool a = wt.out_set(level + 1, next[0]).test(dst);
    const bool b = wt.out_set(level + 1, next[1]).test(dst);
    ensures(a != b, "banyan property violated: not exactly one way forward");
    r = a ? next[0] : next[1];
    rows[level + 1] = r;
  }
  ensures(r == dst, "generic routing did not reach dst");
  return rows;
}

}  // namespace confnet::min
