#include "analysis/min/permroute.hpp"

#include "min/selfroute.hpp"
#include "util/error.hpp"

namespace confnet::min {

LoadProfile permutation_load(const Network& net,
                             const std::vector<u32>& perm) {
  const u32 N = net.size();
  const u32 n = net.n();
  expects(perm.size() == N, "permutation size mismatch");
  {
    std::vector<bool> seen(N, false);
    for (u32 v : perm) {
      expects(v < N, "permutation value out of range");
      expects(!seen[v], "permutation has duplicates");
      seen[v] = true;
    }
  }
  std::vector<std::vector<u32>> load(n + 1, std::vector<u32>(N, 0));
  for (u32 s = 0; s < N; ++s) {
    const auto rows = net.route_rows(s, perm[s]);
    for (u32 level = 0; level <= n; ++level) ++load[level][rows[level]];
  }
  LoadProfile profile;
  profile.max_load.resize(n + 1, 0);
  for (u32 level = 0; level <= n; ++level) {
    for (u32 p = 0; p < N; ++p)
      profile.max_load[level] = std::max(profile.max_load[level],
                                         load[level][p]);
    if (level >= 1 && level < n)
      profile.peak = std::max(profile.peak, profile.max_load[level]);
  }
  return profile;
}

bool is_admissible(const Network& net, const std::vector<u32>& perm) {
  const LoadProfile p = permutation_load(net, perm);
  for (u32 l : p.max_load)
    if (l > 1) return false;
  return true;
}

}  // namespace confnet::min
