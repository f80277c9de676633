// Topological equivalence of the class (Wu & Feng): any two of the studied
// networks are isomorphic under per-level link relabelings combined with an
// input and an output port relabeling. This module constructs the
// isomorphisms explicitly from the two kinds' row layouts (`min::KindLayout`
// in types.hpp) and can verify any candidate isomorphism exhaustively
// against `path_row` — turning the classic "the class is one family"
// theorem into checkable code. Note what equivalence does and does not
// give: it preserves path structure (hence blocking behaviour under
// relabeled workloads), but conference *members* live on fixed external
// ports, which is why conflict behaviour under aligned placement still
// differs across the class (R2).
#pragma once

#include <vector>

#include "min/types.hpp"
#include "min/wiring.hpp"

namespace confnet::min {

/// An equivalence between two n-stage networks A and B:
///   level_maps[l](path_A(s, d, l)) == path_B(input_perm(s), output_perm(d), l)
/// for every source s, destination d and level l.
struct LevelwiseIsomorphism {
  Permutation input_perm;
  Permutation output_perm;
  std::vector<Permutation> level_maps;  // one per level 0..n
};

/// Exhaustively verify that `iso` maps A's path structure onto B's.
[[nodiscard]] bool verify_isomorphism(Kind a, Kind b, u32 n,
                                      const LevelwiseIsomorphism& iso);

/// Construct the canonical isomorphism from network `a` to network `b`.
/// The level-l map moves each row field to b's position, reversing its
/// bits when a and b keep opposite ends of that address; each port
/// relabeling is then the identity or exactly `bit_reversal`.
/// `min_equivalence_test` verifies it for every ordered pair.
[[nodiscard]] LevelwiseIsomorphism class_isomorphism(Kind a, Kind b, u32 n);

}  // namespace confnet::min
