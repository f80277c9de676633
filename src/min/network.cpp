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
  const StageSpec s{FieldRotation(p + 1, true), FieldRotation(q + 1, false),
                    lay.dst_top ? n - 1 - k : k};
  ensures(s.in_perm.bits() <= n && s.out_perm.bits() <= n,
          "stage wiring wider than the row address");
  ensures(s.routing_bit < n, "routing bit out of range");
  return s;
}

Network::Network(Kind kind, u32 n) : kind_(kind), n_(n) {
  expects(n_ >= 1 && n_ <= kMaxStages, "Network needs 1 <= n <= 20");
  CONFNET_AUDIT_HOOK(audit::check_network(*this));
}

std::array<u32, 2> Network::successors(u32 level, u32 row) const {
  expects(level < n() && row < size(), "successors out of range");
  return stage(level).successors(row);
}

std::array<u32, 2> Network::predecessors(u32 level, u32 row) const {
  expects(level >= 1 && level <= n() && row < size(),
          "predecessors out of range");
  return stage(level - 1).predecessors(row);
}

u32 Network::switch_of_input(u32 stage, u32 row) const {
  expects(stage >= 1 && stage <= n() && row < size(),
          "switch_of_input out of range");
  return this->stage(stage - 1).in_perm(row) >> 1;
}

u32 Network::switch_of_output(u32 stage, u32 row) const {
  expects(stage >= 1 && stage <= n() && row < size(),
          "switch_of_output out of range");
  return this->stage(stage - 1).out_perm.inverse()(row) >> 1;
}

std::vector<u32> Network::route_rows(u32 src, u32 dst) const {
  expects(src < size() && dst < size(), "route endpoints out of range");
  std::vector<u32> rows(n() + 1);
  rows[0] = src;
  u32 r = src;
  for (u32 k = 0; k < n(); ++k) {
    const StageSpec st = stage(k);
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
  // Every destination bit is consumed by exactly one stage.
  std::vector<bool> consumed(n, false);
  for (u32 k = 0; k < n; ++k) {
    const min::StageSpec stage = net.stage(k);
    require(stage.routing_bit < n, kSub, "routing bit out of range");
    require(!consumed[stage.routing_bit], kSub,
            "destination bit routed by two stages");
    consumed[stage.routing_bit] = true;
  }
  // Each stage's wiring, materialized here only, is a permutation that
  // agrees with its inverse.
  std::vector<u32> map(N);
  for (u32 k = 0; k < n; ++k) {
    const min::StageSpec stage = net.stage(k);
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
    const min::StageSpec stage = net.stage(level);
    for (u32 row = 0; row < N; row += stride) {
      for (u32 next : stage.successors(row)) {
        require(next < N, kSub, "successor row out of range");
        const auto preds = stage.predecessors(next);
        require(preds[0] == row || preds[1] == row, kSub,
                "successor does not list the link among its predecessors");
      }
    }
  }
}

}  // namespace confnet::audit
