// Factories of the four benchmark workloads, one source file each.
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>

#include "harness.hpp"

namespace confnet::e2e {

/// A round size shrunk by `scale` (smoke runs), never below one.
inline u32 scaled(u32 n, double scale) {
  return std::max<u32>(1, static_cast<u32>(std::lround(n * scale)));
}

std::unique_ptr<Workload> make_intra_churn(const Pinning& p, double scale);
std::unique_ptr<Workload> make_span_churn(const Pinning& p, double scale);
std::unique_ptr<Workload> make_runtime_open(const Pinning& p, double scale);
std::unique_ptr<Workload> make_des_teletraffic(const Pinning& p,
                                               double scale);

}  // namespace confnet::e2e
