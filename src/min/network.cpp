#include "min/network.hpp"

#include "util/bits.hpp"
#include "util/error.hpp"

namespace confnet::min {

using util::bit;

const util::DynBitset& WindowTable::in_set(u32 level, u32 row) const {
  expects(level <= n_ && row < N_, "WindowTable::in_set out of range");
  return in_[static_cast<std::size_t>(level) * N_ + row];
}

const util::DynBitset& WindowTable::out_set(u32 level, u32 row) const {
  expects(level <= n_ && row < N_, "WindowTable::out_set out of range");
  return out_[static_cast<std::size_t>(level) * N_ + row];
}

Network::Network(Topology topo) : topo_(std::move(topo)) {
  CONFNET_AUDIT_HOOK(audit::check_network(*this));
}

std::array<u32, 2> Network::successors(u32 level, u32 row) const {
  expects(level < n() && row < size(), "successors out of range");
  const StageSpec& st = topo_.stages()[level];
  const u32 q = st.in_perm(row) & ~u32{1};
  return {st.out_perm(q), st.out_perm(q | 1)};
}

std::array<u32, 2> Network::predecessors(u32 level, u32 row) const {
  expects(level >= 1 && level <= n() && row < size(),
          "predecessors out of range");
  const StageSpec& st = topo_.stages()[level - 1];
  const FieldRotation in_inv = st.in_perm.inverse();
  const u32 q = st.out_perm.inverse()(row) & ~u32{1};
  return {in_inv(q), in_inv(q | 1)};
}

u32 Network::switch_of_input(u32 stage, u32 row) const {
  expects(stage >= 1 && stage <= n() && row < size(),
          "switch_of_input out of range");
  return topo_.stages()[stage - 1].in_perm(row) >> 1;
}

u32 Network::switch_of_output(u32 stage, u32 row) const {
  expects(stage >= 1 && stage <= n() && row < size(),
          "switch_of_output out of range");
  return topo_.stages()[stage - 1].out_perm.inverse()(row) >> 1;
}

std::vector<u32> Network::route_rows(u32 src, u32 dst) const {
  expects(src < size() && dst < size(), "route endpoints out of range");
  std::vector<u32> rows(n() + 1);
  rows[0] = src;
  u32 r = src;
  for (u32 k = 0; k < n(); ++k) {
    const StageSpec& st = topo_.stages()[k];
    const u32 q = st.in_perm(r);
    r = st.out_perm((q & ~u32{1}) | bit(dst, st.routing_bit));
    rows[k + 1] = r;
  }
  ensures(r == dst, "destination-tag routing did not reach dst");
  return rows;
}

std::vector<u32> Network::route_rows_generic(u32 src, u32 dst) const {
  expects(src < size() && dst < size(), "route endpoints out of range");
  const WindowTable& wt = windows();
  std::vector<u32> rows(n() + 1);
  rows[0] = src;
  u32 r = src;
  for (u32 level = 0; level < n(); ++level) {
    const auto next = successors(level, r);
    const bool a = wt.out_set(level + 1, next[0]).test(dst);
    const bool b = wt.out_set(level + 1, next[1]).test(dst);
    ensures(a != b, "banyan property violated: not exactly one way forward");
    r = a ? next[0] : next[1];
    rows[level + 1] = r;
  }
  ensures(r == dst, "generic routing did not reach dst");
  return rows;
}

const WindowTable& Network::windows() const {
  std::call_once(windows_once_, [this] {
    const u32 N = size();
    const u32 n = this->n();
    auto wt = std::unique_ptr<WindowTable>(new WindowTable(n, N));
    wt->in_.assign(static_cast<std::size_t>(n + 1) * N, util::DynBitset(N));
    wt->out_.assign(static_cast<std::size_t>(n + 1) * N, util::DynBitset(N));
    // Forward pass: inputs reaching each link.
    for (u32 p = 0; p < N; ++p) wt->in_[p].set(p);
    for (u32 level = 0; level < n; ++level) {
      for (u32 p = 0; p < N; ++p) {
        const auto next = successors(level, p);
        const auto& src = wt->in_[static_cast<std::size_t>(level) * N + p];
        for (u32 q : next)
          wt->in_[static_cast<std::size_t>(level + 1) * N + q] |= src;
      }
    }
    // Backward pass: outputs reachable from each link.
    for (u32 p = 0; p < N; ++p)
      wt->out_[static_cast<std::size_t>(n) * N + p].set(p);
    for (u32 level = n; level >= 1; --level) {
      for (u32 p = 0; p < N; ++p) {
        const auto prev = predecessors(level, p);
        const auto& src = wt->out_[static_cast<std::size_t>(level) * N + p];
        for (u32 q : prev)
          wt->out_[static_cast<std::size_t>(level - 1) * N + q] |= src;
      }
    }
    windows_ = std::move(wt);
  });
  return *windows_;
}

}  // namespace confnet::min

namespace confnet::audit {

void check_network(const min::Network& net) {
  constexpr std::string_view kSub = "min";
  using min::u32;
  const u32 N = net.size();
  const u32 n = net.n();
  require(net.topology().stages().size() == n, kSub,
          "stage count differs from log2(N)");
  // Every destination bit is consumed by exactly one stage.
  std::vector<bool> consumed(n, false);
  for (const auto& stage : net.topology().stages()) {
    require(stage.routing_bit < n, kSub, "routing bit out of range");
    require(!consumed[stage.routing_bit], kSub,
            "destination bit routed by two stages");
    consumed[stage.routing_bit] = true;
  }
  // Each stage's wiring, materialized here only, is a permutation that
  // agrees with its inverse.
  std::vector<u32> map(N);
  for (const auto& stage : net.topology().stages()) {
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
