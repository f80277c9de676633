// Admission fast path: hierarchical-bitmap port allocation.
//
// `PortPlacer` (placement.hpp) answers every policy with O(N) scans over a
// taken bitmap and reads the region book port by port — fine as an
// oracle, quadratic for a control plane churning thousands of sessions.
// The class here backs the identical `PlacerBase` contract with a
// util::HierBitset occupancy index instead:
//  * first-fit  = find-first over the free bitmap,
//  * random     = rank-select over the free count (same without-replacement
//                 draw sequence as the reference, so both backends consume
//                 identical RNG streams and return identical ports),
//  * buddy      = the region book's cover planes read a 64-port word at a
//                 time: a free block below 64 ports is a field of its word
//                 (AND-folds mark the wholly uncovered fields, a swap of
//                 buddy fields keeps the maximal ones) and a larger one a
//                 run of wholly uncovered words; the shared step reads a
//                 region's room as a popcount of free-port words before it
//                 scans the region's cover.
// Randomized equivalence tests (tests/placement_fastpath_test.cpp) pin this
// backend to the reference on exact port sets under interleaved churn.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "conference/placement.hpp"
#include "util/hier_bitset.hpp"

namespace confnet::conf {

/// Hierarchical-bitmap implementation of PlacerBase. One free-port bitset
/// (set bit = free) serves every policy; buddy policy adds the region
/// book, which only a buddy placer builds.
class FastPortPlacer final : public PlacerBase {
 public:
  FastPortPlacer(u32 n, PlacementPolicy policy);

  [[nodiscard]] PlacementPolicy policy() const noexcept override {
    return policy_;
  }
  [[nodiscard]] u32 free_ports() const noexcept override {
    return static_cast<u32>(free_.count());
  }

  [[nodiscard]] bool occupied(u32 port) const noexcept override {
    return port < free_.size() && !free_.test(port);
  }

  [[nodiscard]] bool place_into(u32 size, util::Rng& rng,
                                std::vector<u32>& ports) override;

  [[nodiscard]] bool place_shared_into(u32 size, u32 limit,
                                       std::vector<u32>& ports) override;

  [[nodiscard]] Region region_of(u32 port) const override {
    return book_.region_of(port);
  }
  [[nodiscard]] u32 cover(u32 port) const noexcept override {
    return book_.cover(port);
  }

  [[nodiscard]] std::optional<u32> expand(const std::vector<u32>& current,
                                          util::Rng& rng) override;

  void release_one(u32 port) override;

  void release(const std::vector<u32>& ports) override;

  [[nodiscard]] bool placeable(u32 size) const noexcept override;

 private:
  friend void audit::check_placer(const ::confnet::conf::FastPortPlacer&);

  /// The free block of at least `order` that place_into() takes
  /// (PlacerBase documents the choice), or nullopt.
  [[nodiscard]] std::optional<Region> free_block(u32 order) const;
  /// The region place_shared_into() would enter (PlacerBase documents the
  /// choice), or nullopt.
  [[nodiscard]] std::optional<Region> shared_region(u32 size,
                                                    u32 limit) const;

  u32 n_;
  PlacementPolicy policy_;
  util::HierBitset free_;  // set bit = port free
  RegionBook book_;        // empty unless kBuddy
};

}  // namespace confnet::conf
