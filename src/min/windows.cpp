#include "min/windows.hpp"

#include "util/bits.hpp"
#include "util/error.hpp"

namespace confnet::min {

using util::bit_field;
using util::low_bits;

namespace {
void check_args(u32 n, u32 level, u32 row) {
  expects(n >= 1 && n <= 20, "window: 1 <= n <= 20");
  expects(level <= n, "window: level <= n");
  expects(row < (u32{1} << n), "window: row < N");
}

constexpr WindowDesc block(u32 first, u32 size) noexcept {
  return WindowDesc{WindowShape::kBlock, first, 1, size};
}

constexpr WindowDesc stride_class(u32 first, u32 stride, u32 size) noexcept {
  // A full-period stride class degenerates to a block when stride == 1.
  return WindowDesc{stride == 1 ? WindowShape::kBlock : WindowShape::kStride,
                    first, stride, size};
}
}  // namespace

WindowDesc in_window(Kind kind, u32 n, u32 level, u32 row) {
  check_args(n, level, row);
  const u32 l = level;
  const u32 size = u32{1} << l;
  switch (kind) {
    case Kind::kOmega:
      // Link row = s_low(n-l) . d_top(l)  =>  s fixed in its low n-l bits.
      return stride_class(static_cast<u32>(row >> l), u32{1} << (n - l), size);
    case Kind::kButterfly:
      // Row keeps s's low n-l bits in place.
      return stride_class(static_cast<u32>(low_bits(row, n - l)),
                          u32{1} << (n - l), size);
    case Kind::kIndirectCube:
      // Row keeps s's high n-l bits in place.
      return block(static_cast<u32>((row >> l) << l), size);
    case Kind::kBaseline:
      // Row = d_top(l) . s_high(n-l): sources with those high bits.
      return block(static_cast<u32>(low_bits(row, n - l) << l), size);
    case Kind::kFlip:
      // Row = s_high(n-l) . d_top(l).
      return block(static_cast<u32>((row >> l) << l), size);
    case Kind::kReverseOmega:
      // Row = d_low(l) . s_high(n-l): sources with those high bits.
      return block(static_cast<u32>(low_bits(row, n - l) << l), size);
  }
  throw Error("in_window: bad kind");
}

WindowDesc out_window(Kind kind, u32 n, u32 level, u32 row) {
  check_args(n, level, row);
  const u32 l = level;
  const u32 size = u32{1} << (n - l);
  switch (kind) {
    case Kind::kOmega:
      // Destinations whose top l bits equal the row's low l bits.
      return block(static_cast<u32>(low_bits(row, l) << (n - l)), size);
    case Kind::kButterfly:
      // Destinations whose top l bits equal the row's top l bits.
      return block(static_cast<u32>((row >> (n - l)) << (n - l)), size);
    case Kind::kIndirectCube:
      // Destinations whose low l bits equal the row's low l bits.
      return stride_class(static_cast<u32>(low_bits(row, l)), u32{1} << l,
                          size);
    case Kind::kBaseline:
      // Destinations whose top l bits equal the row's top l bits.
      return block(static_cast<u32>((row >> (n - l)) << (n - l)), size);
    case Kind::kFlip:
      // Destinations whose top l bits equal the row's low l bits.
      return block(static_cast<u32>(low_bits(row, l) << (n - l)), size);
    case Kind::kReverseOmega:
      // Destinations whose low l bits equal the row's top l bits.
      return stride_class(static_cast<u32>(row >> (n - l)), u32{1} << l,
                          size);
  }
  throw Error("out_window: bad kind");
}

bool has_block_block_windows(Kind kind) noexcept {
  return kind == Kind::kBaseline || kind == Kind::kFlip;
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
  for (u32 level = 0; level < n; ++level)
    for (u32 p = 0; p < N; ++p)
      for (u32 q : net_.successors(level, p))
        in_[at(level + 1, q)] |= in_[at(level, p)];
  // Backward pass: outputs reachable from each link.
  for (u32 p = 0; p < N; ++p) out_[at(n, p)].set(p);
  for (u32 level = n; level >= 1; --level)
    for (u32 p = 0; p < N; ++p)
      for (u32 q : net_.predecessors(level, p))
        out_[at(level - 1, q)] |= out_[at(level, p)];
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
