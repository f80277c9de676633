#include "analysis/min/benes.hpp"

#include "util/error.hpp"

namespace confnet::min {

BenesNetwork::BenesNetwork(u32 n) : n_(n) {
  expects(n >= 1 && n <= 16, "BenesNetwork: 1 <= n <= 16");
}

u32 BenesNetwork::stage_bit(u32 stage) const {
  expects(stage < stage_count(), "stage out of range");
  return stage < n_ ? n_ - 1 - stage : stage - n_ + 1;
}

BenesNetwork::Settings BenesNetwork::route_permutation(
    const std::vector<u32>& perm) const {
  const u32 N = size();
  expects(perm.size() == N, "permutation size mismatch");
  {
    std::vector<bool> seen(N, false);
    for (u32 v : perm) {
      expects(v < N, "permutation value out of range");
      expects(!seen[v], "permutation has duplicates");
      seen[v] = true;
    }
  }
  Settings settings(stage_count(), std::vector<bool>(N, false));
  route_recursive(n_, perm, 0, 0, settings);
  return settings;
}

void BenesNetwork::route_recursive(u32 m, const std::vector<u32>& perm,
                                   u32 first_stage, u32 row_base,
                                   Settings& settings) const {
  if (m == 1) {
    // A single 2x2 switch: cross iff input 0 wants output 1.
    settings[first_stage][row_base] = perm[0] == 1;
    return;
  }
  const u32 half = u32{1} << (m - 1);
  const u32 ports = 2 * half;
  const u32 last_stage = first_stage + 2 * (m - 1);

  std::vector<u32> inv(ports);
  for (u32 x = 0; x < ports; ++x) inv[perm[x]] = x;

  // Looping 2-coloring: plane p[x] for inputs, q[y] for outputs, with
  //   p[x] != p[x ^ half],  q[y] != q[y ^ half],  q[perm[x]] == p[x].
  std::vector<int> p(ports, -1), q(ports, -1);
  for (u32 start = 0; start < ports; ++start) {
    if (p[start] != -1) continue;
    // Walk one loop of the constraint graph: alternate between an input's
    // output pair and that partner-output's input pair until closure.
    u32 x = start;
    while (p[x] == -1) {
      p[x] = 0;
      const u32 y = perm[x];
      ensures(q[y] == -1 || q[y] == 0, "looping contradiction");
      q[y] = 0;
      ensures(q[y ^ half] == -1 || q[y ^ half] == 1,
              "looping contradiction");
      q[y ^ half] = 1;
      const u32 x2 = inv[y ^ half];  // must ride plane 1
      ensures(p[x2] == -1 || p[x2] == 1, "looping contradiction");
      p[x2] = 1;
      x = x2 ^ half;  // its input partner must ride plane 0: next head
    }
  }

  // Outer stage settings: plane 1 = upper half of this block's rows.
  for (u32 i = 0; i < half; ++i) {
    settings[first_stage][row_base + i] = p[i] == 1;
    settings[last_stage][row_base + i] = q[i] == 1;
  }

  // Sub-permutations over the low m-1 bits.
  std::vector<u32> sub0(half), sub1(half);
  for (u32 x = 0; x < ports; ++x) {
    const u32 y = perm[x];
    if (p[x] == 0) {
      sub0[x & (half - 1)] = y & (half - 1);
    } else {
      sub1[x & (half - 1)] = y & (half - 1);
    }
  }
  route_recursive(m - 1, sub0, first_stage + 1, row_base, settings);
  route_recursive(m - 1, sub1, first_stage + 1, row_base + half, settings);
}

std::vector<u32> BenesNetwork::apply(const Settings& settings) const {
  const u32 N = size();
  expects(settings.size() == stage_count(), "settings stage count mismatch");
  // rows[r] = source currently occupying row r.
  std::vector<u32> rows(N);
  for (u32 r = 0; r < N; ++r) rows[r] = r;
  for (u32 s = 0; s < stage_count(); ++s) {
    expects(settings[s].size() == N, "settings row count mismatch");
    const u32 bit = u32{1} << stage_bit(s);
    for (u32 x = 0; x < N; ++x) {
      if (x & bit) continue;  // visit each pair once via its lower row
      if (settings[s][x]) std::swap(rows[x], rows[x | bit]);
    }
  }
  // result[src] = output row where the source ended up.
  std::vector<u32> result(N);
  for (u32 r = 0; r < N; ++r) result[rows[r]] = r;
  return result;
}

}  // namespace confnet::min
