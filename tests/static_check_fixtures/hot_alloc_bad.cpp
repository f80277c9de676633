// static-check-fixture: path=src/conference/fixture_hot_alloc.cpp expect=hot-alloc:2
//
// A CONFNET_HOT kernel that grows a vector and heap-allocates. Both must
// be flagged; the cold helper below doing the same must not be.

#include <memory>
#include <vector>

#include "util/thread_annotations.hpp"

namespace confnet::conf {

CONFNET_HOT int hot_kernel(std::vector<int>& out) {
  out.push_back(42);
  auto scratch = std::make_unique<int[]>(16);
  return out.back() + scratch[0];
}

int cold_helper(std::vector<int>& out) {
  out.push_back(7);  // fine: not a hot function
  return out.back();
}

}  // namespace confnet::conf
