#include "min/selfroute.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "util/error.hpp"

namespace confnet::min {

namespace {
/// The distinct values of `field` over `addrs`, sorted, in `out`. A field
/// of at most six bits is collected in a 64-bit set, which iterates in
/// order; a wider one is sorted only when the addresses leave it out of
/// order (never for a field of an address's top bits: it is monotone in a
/// sorted address list).
std::span<u32> distinct_parts(PartField field, std::span<const u32> addrs,
                              std::span<u32> out) {
  std::size_t k = 0;
  if (field.mask < 64) {
    u64 seen = 0;
    for (u32 a : addrs) seen |= u64{1} << ((a >> field.shift_in) & field.mask);
    for (; seen != 0; seen &= seen - 1)
      out[k++] = static_cast<u32>(std::countr_zero(seen)) << field.shift_out;
    return out.first(k);
  }
  for (u32 a : addrs) out[k++] = field.apply(a);
  if (!std::is_sorted(out.begin(), out.end()))
    std::sort(out.begin(), out.end());
  return out.first(static_cast<std::size_t>(
      std::unique(out.begin(), out.end()) - out.begin()));
}
}  // namespace

void path_union(Kind kind, u32 n, std::span<const u32> sources,
                std::span<const u32> sinks, u32 last, LevelLinks& links,
                std::vector<u32>& parts) {
  expects(n >= 1 && n <= 20, "path union: 1 <= n <= 20");
  expects(!sources.empty() && !sinks.empty(), "path union: empty endpoints");
  for (u32 v : sources) expects(v < (u32{1} << n), "source out of range");
  for (u32 v : sinks) expects(v < (u32{1} << n), "sink out of range");
  last = std::min(last, n);
  const std::size_t s = sources.size();
  const std::size_t d = sinks.size();
  parts.resize((s + d) * (last + 1));
  std::array<std::span<u32>, 21> src, dst;  // n <= 20
  std::array<u32, 21> counts{};
  for (u32 level = 0; level <= last; ++level) {
    const RowParts rp = row_parts(kind, n, level);
    const auto at = std::span(parts).subspan((s + d) * level);
    src[level] = distinct_parts(rp.src, sources, at.first(s));
    dst[level] = distinct_parts(rp.dst, sinks, at.subspan(s, d));
    counts[level] = static_cast<u32>(src[level].size() * dst[level].size());
  }
  links.reshape(std::span<const u32>(counts.data(), n + 1));
  const bool src_on_top = layout(kind).src_on_top;
  for (u32 level = 0; level <= last; ++level) {
    const auto [outer, inner] = src_on_top ? std::pair(src[level], dst[level])
                                           : std::pair(dst[level], src[level]);
    u32* row = links.rows(level).data();
    for (u32 a : outer)
      for (u32 b : inner) *row++ = a | b;
  }
}

u32 cube_tap_level(std::span<const u32> members) {
  expects(!members.empty(), "tap level of an empty member set");
  u32 diff = 0;
  for (u32 m : members) diff |= m ^ members.front();
  return static_cast<u32>(std::bit_width(diff));
}

std::vector<u32> path_rows(Kind kind, u32 n, u32 src, u32 dst) {
  std::vector<u32> rows(n + 1);
  for (u32 l = 0; l <= n; ++l) rows[l] = path_row(kind, n, src, dst, l);
  return rows;
}

}  // namespace confnet::min
