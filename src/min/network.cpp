#include "min/network.hpp"

#include <string>

#include "min/selfroute.hpp"
#include "util/audit.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace confnet::min {

using util::bit;

Kind kind_from_name(std::string_view name) {
  for (Kind k : kAllKinds)
    if (kind_name(k) == name) return k;
  throw Error("unknown topology name: " + std::string(name));
}

StageSpec make_stage(Kind kind, u32 n, u32 k) {
  expects(k < n, "make_stage needs k < n");
  // Stage k turns the level-k row into the level-(k+1) row. Its source
  // field gives up its low end bit (s bit k) when it keeps the high bits,
  // else its top end bit (s bit n-1-k); the input wiring rotates that bit's
  // row position p down to the switch-port LSB. Its destination field gains
  // the routed bit (d bit n-1-k below the kept top bits, else d bit k above
  // the kept low bits); the output wiring rotates the LSB up to that bit's
  // position q in the next row.
  const KindLayout& lay = layout(kind);
  const u32 p = row_parts(kind, n, k).src.shift_out +
                (lay.src_high ? 0 : n - 1 - k);
  const u32 q = row_parts(kind, n, k + 1).dst.shift_out +
                (lay.dst_top ? 0 : k);
  const u32 routing_bit = lay.dst_top ? n - 1 - k : k;
  return {FieldRotation(p + 1, true), FieldRotation(q + 1, false), routing_bit};
}

Network::Network(Kind kind, u32 n) : kind_(kind), n_(n) {
  expects(n_ >= 1 && n_ <= kMaxStages, "Network needs 1 <= n <= 20");
  for (u32 k = 0; k < n_; ++k) {
    const StageSpec& s = stages_[k] = make_stage(kind_, n_, k);
    expects(s.in_perm.bits() <= n_ && s.out_perm.bits() <= n_,
            "stage wiring wider than the row address");
    expects(s.routing_bit < n_, "routing bit out of range");
  }
  CONFNET_AUDIT_HOOK(audit::check_network(*this));
}

std::array<u32, 2> Network::successors(u32 level, u32 row) const {
  expects(level < n() && row < size(), "successors out of range");
  const StageSpec& st = stages_[level];
  const u32 q = st.in_perm(row) & ~u32{1};
  return {st.out_perm(q), st.out_perm(q | 1)};
}

std::array<u32, 2> Network::predecessors(u32 level, u32 row) const {
  expects(level >= 1 && level <= n() && row < size(),
          "predecessors out of range");
  const StageSpec& st = stages_[level - 1];
  const FieldRotation in_inv = st.in_perm.inverse();
  const u32 q = st.out_perm.inverse()(row) & ~u32{1};
  return {in_inv(q), in_inv(q | 1)};
}

u32 Network::switch_of_input(u32 stage, u32 row) const {
  expects(stage >= 1 && stage <= n() && row < size(),
          "switch_of_input out of range");
  return stages_[stage - 1].in_perm(row) >> 1;
}

u32 Network::switch_of_output(u32 stage, u32 row) const {
  expects(stage >= 1 && stage <= n() && row < size(),
          "switch_of_output out of range");
  return stages_[stage - 1].out_perm.inverse()(row) >> 1;
}

std::vector<u32> Network::route_rows(u32 src, u32 dst) const {
  expects(src < size() && dst < size(), "route endpoints out of range");
  std::vector<u32> rows(n() + 1);
  rows[0] = src;
  u32 r = src;
  for (u32 k = 0; k < n(); ++k) {
    const StageSpec& st = stages_[k];
    const u32 q = st.in_perm(r);
    r = st.out_perm((q & ~u32{1}) | bit(dst, st.routing_bit));
    rows[k + 1] = r;
  }
  ensures(r == dst, "destination-tag routing did not reach dst");
  return rows;
}

}  // namespace confnet::min

namespace confnet::audit {

void check_network(const min::Network& net) {
  constexpr std::string_view kSub = "min";
  using min::u32;
  const u32 N = net.size();
  const u32 n = net.n();
  require(net.stages().size() == n, kSub,
          "stage count differs from log2(N)");
  // Every destination bit is consumed by exactly one stage.
  std::vector<bool> consumed(n, false);
  for (const auto& stage : net.stages()) {
    require(stage.routing_bit < n, kSub, "routing bit out of range");
    require(!consumed[stage.routing_bit], kSub,
            "destination bit routed by two stages");
    consumed[stage.routing_bit] = true;
  }
  // Each stage's wiring, materialized here only, is a permutation that
  // agrees with its inverse.
  std::vector<u32> map(N);
  for (const auto& stage : net.stages()) {
    for (const min::FieldRotation& wiring : {stage.in_perm, stage.out_perm}) {
      const min::FieldRotation inv = wiring.inverse();
      for (u32 p = 0; p < N; ++p) map[p] = wiring(p);
      check_permutation(map, kSub);
      bool agrees = true;
      for (u32 p = 0; p < N; ++p) agrees &= inv(map[p]) == p;
      require(agrees, kSub, "stage wiring disagrees with its inverse");
    }
  }
  // Successor/predecessor hops are mutually consistent (sampled on big
  // networks to keep the audit O(N) per level).
  const u32 stride = N > 4096 ? N / 4096 : 1;
  for (u32 level = 0; level < n; ++level) {
    for (u32 row = 0; row < N; row += stride) {
      for (u32 next : net.successors(level, row)) {
        require(next < N, kSub, "successor row out of range");
        const auto preds = net.predecessors(level + 1, next);
        require(preds[0] == row || preds[1] == row, kSub,
                "successor does not list the link among its predecessors");
      }
    }
  }
}

}  // namespace confnet::audit
