#include "analysis/min/banyan.hpp"

#include <vector>

namespace confnet::min {

PathCensus count_paths(const Network& net) {
  const u32 N = net.size();
  const u32 n = net.n();
  PathCensus census;
  census.min_paths = ~u64{0};
  // For each source, count paths to every level-n row by forward DP.
  std::vector<u64> cur(N), next(N);
  for (u32 s = 0; s < N; ++s) {
    std::fill(cur.begin(), cur.end(), u64{0});
    cur[s] = 1;
    for (u32 level = 0; level < n; ++level) {
      const StageSpec stage = net.stage(level);
      std::fill(next.begin(), next.end(), u64{0});
      for (u32 p = 0; p < N; ++p) {
        if (cur[p] == 0) continue;
        for (u32 q : stage.successors(p)) next[q] += cur[p];
      }
      cur.swap(next);
    }
    for (u32 d = 0; d < N; ++d) {
      census.min_paths = std::min(census.min_paths, cur[d]);
      census.max_paths = std::max(census.max_paths, cur[d]);
      census.total_paths += cur[d];
    }
  }
  if (census.min_paths == ~u64{0}) census.min_paths = 0;
  return census;
}

bool is_banyan(const Network& net) {
  const PathCensus c = count_paths(net);
  return c.min_paths == 1 && c.max_paths == 1;
}

bool has_full_access(const Network& net) {
  return count_paths(net).min_paths >= 1;
}

bool has_uniform_windows(const WindowTable& wt) {
  const u32 N = wt.network().size();
  const u32 n = wt.network().n();
  for (u32 level = 0; level <= n; ++level) {
    const std::size_t want_in = std::size_t{1} << level;
    const std::size_t want_out = std::size_t{1} << (n - level);
    for (u32 p = 0; p < N; ++p) {
      if (wt.in_set(level, p).count() != want_in) return false;
      if (wt.out_set(level, p).count() != want_out) return false;
    }
  }
  return true;
}

}  // namespace confnet::min
