#include "min/selfroute.hpp"

namespace confnet::min {

std::vector<u32> path_rows(Kind kind, u32 n, u32 src, u32 dst) {
  std::vector<u32> rows(n + 1);
  for (u32 l = 0; l <= n; ++l) rows[l] = path_row(kind, n, src, dst, l);
  return rows;
}

}  // namespace confnet::min
