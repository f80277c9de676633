#include "analysis/min/equivalence.hpp"

#include "min/selfroute.hpp"
#include "min/wiring.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace confnet::min {

namespace {

/// Level-l map from a's rows to b's rows: each field moves to b's position,
/// its bits reversed when `reverse_src` / `reverse_dst`.
Permutation level_map(Kind a, Kind b, u32 n, u32 l, bool reverse_src,
                      bool reverse_dst) {
  const RowParts from = row_parts(a, n, l);
  const RowParts to = row_parts(b, n, l);
  const auto move = [](u32 row, PartField f, PartField t, u32 width,
                       bool reverse) {
    const u32 field = (row >> f.shift_out) & f.mask;
    return (reverse ? static_cast<u32>(util::reverse_bits_n(field, width))
                    : field)
           << t.shift_out;
  };
  std::vector<u32> m(u32{1} << n);
  for (u32 r = 0; r < m.size(); ++r)
    m[r] = move(r, from.src, to.src, n - l, reverse_src) |
           move(r, from.dst, to.dst, l, reverse_dst);
  return Permutation(std::move(m));
}

}  // namespace

bool verify_isomorphism(Kind a, Kind b, u32 n,
                        const LevelwiseIsomorphism& iso) {
  const u32 N = u32{1} << n;
  expects(iso.level_maps.size() == n + 1,
          "isomorphism needs one map per level");
  expects(iso.input_perm.size() == N && iso.output_perm.size() == N,
          "isomorphism port relabeling size mismatch");
  for (u32 s = 0; s < N; ++s) {
    for (u32 d = 0; d < N; ++d) {
      const u32 sb = iso.input_perm(s);
      const u32 db = iso.output_perm(d);
      for (u32 l = 0; l <= n; ++l) {
        if (iso.level_maps[l](path_row(a, n, s, d, l)) !=
            path_row(b, n, sb, db, l))
          return false;
      }
    }
  }
  return true;
}

LevelwiseIsomorphism class_isomorphism(Kind a, Kind b, u32 n) {
  expects(n >= 1 && n <= 12, "class_isomorphism: 1 <= n <= 12");
  // Kinds that keep opposite ends of an address see it bit-reversed.
  const bool reverse_src = layout(a).src_high != layout(b).src_high;
  const bool reverse_dst = layout(a).dst_top != layout(b).dst_top;
  const auto relabel = [n](bool reverse) {
    return reverse ? bit_reversal(n) : Permutation::identity(u32{1} << n);
  };
  LevelwiseIsomorphism iso{relabel(reverse_src), relabel(reverse_dst), {}};
  iso.level_maps.reserve(n + 1);
  for (u32 l = 0; l <= n; ++l)
    iso.level_maps.push_back(level_map(a, b, n, l, reverse_src, reverse_dst));
  return iso;
}

}  // namespace confnet::min
