// Admission fast path: hierarchical-bitmap port allocation.
//
// `PortPlacer` (placement.hpp) answers every policy with O(N) scans over a
// taken bitmap and keeps buddy blocks in sorted vectors plus a std::set —
// fine as an oracle, quadratic for a control plane churning thousands of
// sessions. The two classes here back the identical `PlacerBase` contract
// with a util::HierBitset occupancy index instead:
//  * first-fit  = find-first over the free bitmap,
//  * random     = rank-select over the free count (same without-replacement
//                 draw sequence as the reference, so both backends consume
//                 identical RNG streams and return identical ports),
//  * buddy      = per-order free-block bitmaps with O(1) coalesce tests
//                 (`free_[ord].test(idx ^ 1)`) replacing the sorted-vector
//                 lower_bound/erase bookkeeping; the shared step reads a
//                 region's room as a popcount of free-port words before
//                 it scans the region's cover.
// Randomized equivalence tests (tests/placement_fastpath_test.cpp) pin this
// backend to the reference on exact port sets under interleaved churn.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "conference/placement.hpp"
#include "util/hier_bitset.hpp"

namespace confnet::conf {

/// Binary buddy allocator over 2^n ports with per-order free-block
/// bitmaps: bit b of free_[order] set means the block [b<<order,
/// (b+1)<<order) is free. Allocation picks the highest-base free block at
/// the lowest sufficient order (matching BuddyAllocator's back()-of-sorted
/// -vector choice), release coalesces eagerly with one bit test per level.
class BitmapBuddyAllocator {
 public:
  /// An empty allocator over no ports; it allocates nothing.
  BitmapBuddyAllocator() = default;
  explicit BitmapBuddyAllocator(u32 n);

  [[nodiscard]] u32 n() const noexcept { return n_; }
  [[nodiscard]] u32 size() const noexcept { return u32{1} << n_; }
  [[nodiscard]] u32 free_ports() const noexcept { return free_ports_; }

  /// Allocate an aligned block of 2^order ports; nullopt when fragmented
  /// beyond repair or full. Returns the block base.
  [[nodiscard]] std::optional<u32> allocate(u32 order);

  /// BuddyAllocator::claim: take every free block inside `region` out.
  u32 claim(Region region);

  /// Release an aligned block none of whose ports is free. Same checking
  /// split as BuddyAllocator::release: full double-free/foreign-free
  /// detection in CONFNET_AUDIT builds, cheap guards otherwise.
  void release(u32 base, u32 order);

  /// Whether a block of the given order could be allocated right now.
  [[nodiscard]] bool can_allocate(u32 order) const;

 private:
  friend void audit::check_placer(const ::confnet::conf::FastPortPlacer&);

  /// Whether any port of the block is free.
  [[nodiscard]] bool overlaps_free(Region block) const;

  u32 n_ = 0;
  u32 free_ports_ = 0;
  std::vector<util::HierBitset> free_;  // [order] -> free-block bitmap
};

/// Hierarchical-bitmap implementation of PlacerBase. One free-port bitset
/// (set bit = free) serves first-fit and random placement; buddy policy
/// adds the per-order allocator above and the region book. Only a buddy
/// placer builds those two.
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

  [[nodiscard]] bool place_shared_into(u32 size,
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

  /// The region place_shared_into() would enter (PlacerBase documents the
  /// choice), or nullopt.
  [[nodiscard]] std::optional<Region> shared_region(u32 size) const;

  u32 n_;
  PlacementPolicy policy_;
  BitmapBuddyAllocator buddy_;  // empty unless kBuddy
  util::HierBitset free_;  // set bit = port free
  RegionBook book_;        // empty unless kBuddy
};

}  // namespace confnet::conf
