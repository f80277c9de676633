// static-check-fixture: path=src/util/fixture_simd.cpp expect=hot-alloc:2
//
// A SIMD row kernel marked CONFNET_HOT that buffers words through a
// growing vector instead of streaming over the row in place. The
// push_back and the resize must both be flagged; the cold dispatch helper
// below may allocate freely.

#include <cstdint>
#include <vector>

#include "util/thread_annotations.hpp"

namespace confnet::util::simd {

CONFNET_HOT void bad_or_into(std::uint64_t* dst, const std::uint64_t* src,
                             std::size_t words) {
  std::vector<std::uint64_t> merged;
  merged.resize(words);
  for (std::size_t w = 0; w < words; ++w) merged[w] = dst[w] | src[w];
  for (std::size_t w = 0; w < words; ++w) dst[w] = merged[w];
}

CONFNET_HOT bool bad_row_any(const std::uint64_t* src, std::size_t words) {
  std::vector<std::uint64_t> copy;
  for (std::size_t w = 0; w < words; ++w) copy.push_back(src[w]);
  for (std::uint64_t v : copy)
    if (v != 0) return true;
  return false;
}

std::vector<std::uint64_t> cold_dispatch_table() {
  std::vector<std::uint64_t> table;
  table.resize(3);  // fine: backend selection is not a hot path
  return table;
}

}  // namespace confnet::util::simd
