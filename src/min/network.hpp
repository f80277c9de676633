// A multistage topology of the studied class, as an O(n) value.
//
// A stage is: input wiring -> a column of N/2 two-by-two switch modules
// (switch w owns post-wiring ports {2w, 2w+1}) -> output wiring. Each wiring
// is a closed-form `FieldRotation`, and `make_stage` derives both rotations
// and the routing bit from the kind's row layout (`min::KindLayout` in
// types.hpp); `StageWiring.MatchesExplicitPermutationsForEveryKind` pins
// them against the named wiring patterns. A `Network` is just its kind and
// n: `stage(k)` derives stage k on demand, so a network allocates nothing
// and is two words to build, copy or move whatever N. A caller that walks a
// whole level takes that level's spec once. Destination-tag self-routing
// holds for every member of the class: at stage k the switch emits the
// signal on sub-port `bit(dest, routing_bit[k])`.
//
// The network answers the structural questions everything upstream needs:
// link successors and predecessors, switch indexing, and the unique
// input->output path by destination tag. Reachability windows live in
// `windows.hpp` (closed form, plus the BFS `WindowTable` reference).
#pragma once

#include <array>
#include <type_traits>
#include <vector>

#include "min/types.hpp"
#include "min/wiring.hpp"

namespace confnet::min {

struct StageSpec {
  FieldRotation in_perm;   // level k rows -> switch ports
  FieldRotation out_perm;  // switch ports -> level k+1 rows
  u32 routing_bit;         // destination bit consumed by this stage

  /// Level-(k+1) rows fed by level-k row `row`.
  [[nodiscard]] constexpr std::array<u32, 2> successors(
      u32 row) const noexcept {
    const u32 q = in_perm(row) & ~u32{1};
    return {out_perm(q), out_perm(q | 1)};
  }

  /// Level-k rows feeding level-(k+1) row `row`.
  [[nodiscard]] constexpr std::array<u32, 2> predecessors(
      u32 row) const noexcept {
    const FieldRotation in_inv = in_perm.inverse();
    const u32 q = out_perm.inverse()(row) & ~u32{1};
    return {in_inv(q), in_inv(q | 1)};
  }
};

/// Stage `k` (0-based) of the named topology with N = 2^n ports. Ensures
/// both wirings fit the n-bit row address and the routing bit is below n.
[[nodiscard]] StageSpec make_stage(Kind kind, u32 n, u32 k);

class Network {
 public:
  static constexpr u32 kMaxStages = 20;

  /// The named topology with N = 2^n ports (1 <= n <= kMaxStages).
  Network(Kind kind, u32 n);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  /// Number of stages (= log2 of the port count).
  [[nodiscard]] u32 n() const noexcept { return n_; }
  /// Number of member ports N = 2^n.
  [[nodiscard]] u32 size() const noexcept { return u32{1} << n_; }
  /// Stage `k` (0-based, k < n).
  [[nodiscard]] StageSpec stage(u32 k) const {
    return make_stage(kind_, n_, k);
  }

  /// Level-(level+1) rows fed by link (level,row); requires level < n.
  [[nodiscard]] std::array<u32, 2> successors(u32 level, u32 row) const;

  /// Level-(level-1) rows feeding link (level,row); requires level >= 1.
  [[nodiscard]] std::array<u32, 2> predecessors(u32 level, u32 row) const;

  /// Index of the stage-`stage` switch whose input side link
  /// (stage-1,row) attaches to. Stages are 1-based; 0 <= result < N/2.
  [[nodiscard]] u32 switch_of_input(u32 stage, u32 row) const;

  /// Index of the stage-`stage` switch whose output side produces link
  /// (stage,row).
  [[nodiscard]] u32 switch_of_output(u32 stage, u32 row) const;

  /// The unique path from input `src` to output `dst` as the row occupied
  /// at every level 0..n, via destination-tag self-routing.
  [[nodiscard]] std::vector<u32> route_rows(u32 src, u32 dst) const;

 private:
  Kind kind_;
  u32 n_;
};

static_assert(std::is_copy_constructible_v<Network> &&
              std::is_nothrow_move_constructible_v<Network>);

}  // namespace confnet::min
