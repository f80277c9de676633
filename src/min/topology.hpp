// Assembly of the studied network class from stages and wiring.
//
// A stage is: input wiring -> a column of N/2 two-by-two switch modules
// (switch w owns post-wiring ports {2w, 2w+1}) -> output wiring. Each wiring
// is a closed-form `FieldRotation`. A topology is n such stages over N = 2^n
// rows, so it is O(n) words whatever N. Destination-tag self-routing holds
// for every member of the class: at stage k the switch emits the signal on
// sub-port `bit(dest, routing_bit[k])`.
#pragma once

#include <vector>

#include "min/types.hpp"
#include "min/wiring.hpp"

namespace confnet::min {

struct StageSpec {
  FieldRotation in_perm;   // level k rows -> switch ports
  FieldRotation out_perm;  // switch ports -> level k+1 rows
  u32 routing_bit;         // destination bit consumed by this stage
};

class Topology {
 public:
  Topology(Kind kind, u32 n, std::vector<StageSpec> stages);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  /// Number of stages (= log2 of the port count).
  [[nodiscard]] u32 n() const noexcept { return n_; }
  /// Number of member ports N = 2^n.
  [[nodiscard]] u32 size() const noexcept { return u32{1} << n_; }
  [[nodiscard]] const std::vector<StageSpec>& stages() const noexcept {
    return stages_;
  }

 private:
  Kind kind_;
  u32 n_;
  std::vector<StageSpec> stages_;
};

/// Stage `k` (0-based) of the named topology with N = 2^n ports.
[[nodiscard]] StageSpec make_stage(Kind kind, u32 n, u32 k);

/// Build one of the named topologies with N = 2^n ports (1 <= n <= 20).
[[nodiscard]] Topology make_topology(Kind kind, u32 n);

}  // namespace confnet::min
