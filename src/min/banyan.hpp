// Structural property checks for multistage networks.
//
// These are the sanity layer under everything else: the conference results
// only hold for banyan-class networks, so the test suite first proves the
// constructed topologies really are banyan (exactly one path per
// input/output pair) and have full access (every pair connected).
#pragma once

#include <cstdint>

#include "min/network.hpp"
#include "min/windows.hpp"

namespace confnet::min {

/// Number of distinct input->output paths for every pair, summarized.
struct PathCensus {
  u64 min_paths = 0;   // over all (src,dst) pairs
  u64 max_paths = 0;
  u64 total_paths = 0;
};

/// Count paths by dynamic programming over levels (O(N^2 n) bit-parallel).
[[nodiscard]] PathCensus count_paths(const Network& net);

/// True iff the network has exactly one path for every (src,dst) pair.
[[nodiscard]] bool is_banyan(const Network& net);

/// True iff every input can reach every output (full access).
[[nodiscard]] bool has_full_access(const Network& net);

/// Verify |In(l,p)| == 2^l and |Out(l,p)| == 2^(n-l) for all links of the
/// table's network.
[[nodiscard]] bool has_uniform_windows(const WindowTable& wt);

}  // namespace confnet::min
