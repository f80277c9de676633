#include "min/topology.hpp"

#include "util/error.hpp"

namespace confnet::min {

Kind kind_from_name(std::string_view name) {
  for (Kind k : kAllKinds)
    if (kind_name(k) == name) return k;
  throw Error("unknown topology name: " + std::string(name));
}

Topology::Topology(Kind kind, u32 n, std::vector<StageSpec> stages)
    : kind_(kind), n_(n), stages_(std::move(stages)) {
  expects(n_ >= 1 && n_ <= 20, "Topology needs 1 <= n <= 20");
  expects(stages_.size() == n_, "Topology needs exactly n stages");
  for (const auto& s : stages_) {
    expects(s.in_perm.bits() <= n_ && s.out_perm.bits() <= n_,
            "stage wiring wider than the row address");
    expects(s.routing_bit < n_, "routing bit out of range");
  }
}

StageSpec make_stage(Kind kind, u32 n, u32 k) {
  expects(k < n, "make_stage needs k < n");
  constexpr bool kLeft = true, kRight = false;
  switch (kind) {
    case Kind::kOmega:
      // Perfect shuffle in front of every stage; destination bits MSB->LSB.
      return {FieldRotation(n, kLeft), {}, n - 1 - k};
    case Kind::kBaseline:
      // Adjacent pairing, then inverse shuffle inside halving blocks.
      return {{}, FieldRotation(n - k, kRight), n - 1 - k};
    case Kind::kIndirectCube:
      // Stage k pairs rows differing in bit k (bit k moved to the LSB and
      // back); destination bits LSB -> MSB.
      return {FieldRotation(k + 1, kLeft), FieldRotation(k + 1, kRight), k};
    case Kind::kButterfly:
      // Stage k pairs rows differing in bit n-1-k; MSB -> LSB.
      return {FieldRotation(n - k, kLeft), FieldRotation(n - k, kRight),
              n - 1 - k};
    case Kind::kFlip:
      // Reverse baseline: shuffle inside growing blocks, identity out.
      return {FieldRotation(k + 1, kLeft), {}, n - 1 - k};
    case Kind::kReverseOmega:
      // Mirrored omega: adjacent pairing, inverse shuffle after every
      // stage; destination bits LSB -> MSB.
      return {{}, FieldRotation(n, kRight), k};
  }
  throw Error("unknown topology kind");
}

Topology make_topology(Kind kind, u32 n) {
  expects(n >= 1 && n <= 20, "make_topology needs 1 <= n <= 20");
  std::vector<StageSpec> stages;
  stages.reserve(n);
  for (u32 k = 0; k < n; ++k) stages.push_back(make_stage(kind, n, k));
  return Topology(kind, n, std::move(stages));
}

}  // namespace confnet::min
