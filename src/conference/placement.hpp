// Port placement: how the switching system assigns member ports to a new
// conference. The paper's enhanced design realizes each conference "in an
// indirect binary cube-like subnetwork depending on its location", which
// presumes the system places conferences on aligned blocks (buddy
// allocation). Arbitrary (first-fit / random) placement is the adversarial
// alternative that exposes the full Theta(sqrt N) conflict multiplicity.
//
// A buddy placement records its *region* per port: the aligned block it
// was placed in. An ordinary placement's region is its own buddy block.
// When no free aligned block is left, SessionManager::open takes a second,
// shared step (place_shared_into): it places the conference in an aligned
// region that other conferences' regions already cover, the smallest one
// with room whose ports are covered at most once, on the region's
// uncovered free ports first. Regions are aligned, so any two are nested
// or disjoint; a port's *cover* is the number of live regions holding it,
// and the buddy allocator's free space is exactly the ports of cover 0.
// No port is covered more than twice (RegionBook::kMaxCover). DESIGN.md's
// cover bound (R2 generalized) says why sharing is safe: a link carries at
// most as many conferences as cover its crossing port, so a fabric with d
// channels per link admits every group whose region's cover stays <= d,
// and a buddy-placed fabric with d >= 2 never looks at a link.
//
// Two interchangeable allocator backends sit behind `PlacerBase`:
//  * `FastPortPlacer` (port_index.hpp) — the admission fast path, a
//    hierarchical bitmap occupancy index;
//  * `PortPlacer` (below) — the original linear-scan implementation, kept
//    as the reference oracle. Randomized equivalence tests pin the two to
//    exact port-set equality under identical RNG streams, which requires
//    both to implement the same draw sequence per policy (see place()) and
//    the same shared-region choice (see place_shared_into()).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "conference/conference.hpp"
#include "util/audit.hpp"
#include "util/rng.hpp"
#include "util/sliced_counts.hpp"

namespace confnet::conf {

/// An aligned range of 2^order ports from `base`: a buddy block, or the
/// region a buddy placement was made in.
struct Region {
  u32 base = 0;
  u32 order = 0;

  [[nodiscard]] constexpr u32 end() const noexcept {
    return base + (u32{1} << order);
  }
  [[nodiscard]] constexpr bool contains(u32 port) const noexcept {
    return port >= base && port < end();
  }
  bool operator==(const Region&) const = default;
};

/// Classic binary buddy allocator over 2^n ports.
class BuddyAllocator {
 public:
  explicit BuddyAllocator(u32 n);

  [[nodiscard]] u32 n() const noexcept { return n_; }
  [[nodiscard]] u32 size() const noexcept { return u32{1} << n_; }
  [[nodiscard]] u32 free_ports() const noexcept { return free_ports_; }

  /// Allocate an aligned block of 2^order ports; nullopt when fragmented
  /// beyond repair or full. Returns the block base.
  [[nodiscard]] std::optional<u32> allocate(u32 order);

  /// Take every free block inside `region` out of the free lists (a shared
  /// placement covers its whole region); returns the ports taken. No free
  /// block may hold the whole region.
  u32 claim(Region region);

  /// Release an aligned block none of whose ports is free (one returned by
  /// allocate(), or uncovered space of a claimed region). Buddies are
  /// coalesced eagerly. Full double-free/foreign-free detection runs in
  /// CONFNET_AUDIT builds; release builds keep two cheap guards (free-port
  /// counter overflow and same-order duplicate insertion).
  void release(u32 base, u32 order);

  /// Whether a block of the given order could be allocated right now.
  [[nodiscard]] bool can_allocate(u32 order) const;

 private:
  friend void audit::check_placer(const ::confnet::conf::PortPlacer&);

  /// Whether any port of the block is free.
  [[nodiscard]] bool overlaps_free(Region block) const;

  u32 n_;
  u32 free_ports_;
  // free_[order] = sorted bases of free blocks of that order.
  std::vector<std::vector<u32>> free_;
};

/// Buddy placement's per-port bookkeeping, shared by both backends: the
/// order of the region each occupied port's conference was placed in (a
/// byte a port), and each port's cover, the live regions holding it (two
/// bits a port). Empty unless buddy.
class RegionBook {
 public:
  /// The most regions that ever hold one port. An aligned placement
  /// covers only uncovered ports and the shared step enters only regions
  /// no port of which is covered this often, so a shared conference
  /// overlaps one layer of regions and no link carries more than two
  /// buddy conferences (DESIGN.md R2′).
  static constexpr u32 kMaxCover = 2;
  static_assert(kMaxCover == 2, "full_bits() reads the high of two planes");

  RegionBook() = default;
  explicit RegionBook(u32 n);

  /// Region of occupied `port`'s conference.
  [[nodiscard]] Region region_of(u32 port) const;
  [[nodiscard]] u32 cover(u32 port) const {
    return port < order_.size() ? cover_.at(port) : 0;
  }
  /// Whether some region holds `port`.
  [[nodiscard]] bool covered(u32 port) const {
    return ((~uncovered_bits(port / 64) >> (port % 64)) & 1u) != 0;
  }
  /// Whether the shared step may enter `region`: none of its ports is
  /// covered kMaxCover times.
  [[nodiscard]] bool shareable(Region region) const {
    return !cover_.any_equal(region.base, size_of(region), kMaxCover);
  }
  /// Ports of `region` no region covers (all of them free).
  [[nodiscard]] u32 uncovered_in(Region region) const {
    return static_cast<u32>(cover_.count_equal(region.base, size_of(region), 0));
  }

  /// Of ports 64·word .. 64·word + 63, those covered kMaxCover times, as
  /// bits (a word-at-a-time shareable): the counts' high plane, as no
  /// count exceeds kMaxCover = 2.
  [[nodiscard]] std::uint64_t full_bits(std::size_t word) const {
    return cover_.plane(word, 1);
  }
  /// Of ports 64·word .. 64·word + 63, those no region covers, as bits.
  [[nodiscard]] std::uint64_t uncovered_bits(std::size_t word) const {
    return ~(cover_.plane(word, 0) | cover_.plane(word, 1));
  }

  /// Record `port` as placed in `region`, or as free.
  void record(u32 port, Region region) {
    order_[port] = static_cast<std::uint8_t>(region.order + 1);
  }
  void clear(u32 port) { order_[port] = 0; }

  /// One more live region: `region`, free space or a shareable region.
  void cover_region(Region region) {
    cover_.step(region.base, size_of(region), true);
  }
  /// One live region fewer; fn(base, order) for every maximal aligned
  /// block of `region` left uncovered, in ascending order.
  template <typename Fn>
  void uncover_region(Region region, Fn&& fn) {
    cover_.step(region.base, size_of(region), false);
    if (!cover_.any_nonzero(region.base, size_of(region)))
      fn(region.base, region.order);  // no other region within or around
    else
      for_each_block(region, false, fn);
  }
  /// fn(base, order) for every maximal aligned block of `region` whose
  /// ports are all covered (`covered`) or all uncovered, ascending.
  template <typename Fn>
  void for_each_block(Region region, bool covered, Fn&& fn) const {
    u32 p = region.base;
    while (p < region.end()) {
      if (this->covered(p) != covered) {
        ++p;
        continue;
      }
      u32 stop = p + 1;
      while (stop < region.end() && this->covered(stop) == covered) ++stop;
      while (p < stop) {  // split the run into aligned blocks
        const u32 fits = static_cast<u32>(std::bit_width(stop - p)) - 1;
        const u32 order = std::min(fits, static_cast<u32>(std::countr_zero(p)));
        fn(p, order);
        p += u32{1} << order;
      }
    }
  }

 private:
  friend void audit::check_region_book(
      const ::confnet::conf::RegionBook&,
      const std::vector<std::vector<u32>>&, u32, const std::vector<bool>&);

  [[nodiscard]] static u32 size_of(Region region) noexcept {
    return u32{1} << region.order;
  }

  std::vector<std::uint8_t> order_;  // region order + 1; 0 = port free
  util::SlicedCounts cover_;
};

enum class PlacementPolicy : std::uint8_t {
  kBuddy,     // aligned 2^ceil(log2 size) block, first `size` ports used
  kFirstFit,  // lowest-numbered free ports
  kRandom,    // uniformly random free ports
};

[[nodiscard]] constexpr std::string_view placement_name(
    PlacementPolicy p) noexcept {
  switch (p) {
    case PlacementPolicy::kBuddy: return "buddy";
    case PlacementPolicy::kFirstFit: return "first-fit";
    case PlacementPolicy::kRandom: return "random";
  }
  return "?";
}

/// Which PlacerBase implementation a SessionManager runs on.
enum class PlacerBackend : std::uint8_t {
  kFast,       // hierarchical bitmap index (FastPortPlacer)
  kReference,  // linear-scan oracle (PortPlacer)
};

/// Stateful port allocator implementing the three policies behind one
/// interface. Allocations are identified by their returned port vectors.
///
/// The draw-sequence contract shared by every implementation (the fast and
/// reference backends must consume identical RNG streams and return
/// identical ports):
///  * kBuddy / kFirstFit draw nothing;
///  * kRandom selects without replacement by rank: `size` draws of
///    rng.below(free_count), each picking the rank-th free port in
///    ascending order among the ports still free;
///  * a blocked place() consumes no draws (capacity is checked first).
class PlacerBase {
 public:
  virtual ~PlacerBase() = default;

  [[nodiscard]] virtual PlacementPolicy policy() const noexcept = 0;
  [[nodiscard]] virtual u32 free_ports() const noexcept = 0;

  /// Whether `port` is currently assigned to some conference.
  [[nodiscard]] virtual bool occupied(u32 port) const noexcept = 0;

  /// Choose `size` ports for a new conference into `ports` (cleared first;
  /// sorted on success); false = placement blocked (no capacity or, for
  /// buddy, fragmentation). A caller that reuses `ports` allocates nothing.
  [[nodiscard]] virtual bool place_into(u32 size, util::Rng& rng,
                                        std::vector<u32>& ports) = 0;

  /// place_into a fresh vector; nullopt = placement blocked.
  [[nodiscard]] std::optional<std::vector<u32>> place(u32 size,
                                                      util::Rng& rng) {
    std::vector<u32> ports;
    if (!place_into(size, rng, ports)) return std::nullopt;
    return ports;
  }

  /// The shared step of a buddy open, for when no free aligned block of
  /// order log2_ceil(size) is left. Among the aligned regions of at least
  /// that order with `size` free ports that are RegionBook::shareable,
  /// choose the smallest; then the one with the most uncovered ports
  /// (space fragmentation left, which no conference grows into), then the
  /// most free ports (so the room it takes from the conferences already
  /// there is the least needed), then the lowest-based. Every candidate is
  /// covered exactly once somewhere (a wholly uncovered one would hold a
  /// free aligned block) and nowhere twice, so all are equally covered.
  /// Take `size` of its free ports into `ports` (cleared first; sorted),
  /// the uncovered ones lowest first and then the lowest covered ones, and
  /// cover the region. Draws nothing; false, changing nothing except
  /// emptying `ports`, when an aligned block is free, when no region
  /// qualifies, or under the other policies.
  [[nodiscard]] virtual bool place_shared_into(u32 size,
                                               std::vector<u32>& ports) = 0;

  /// Buddy only: the region occupied `port`'s conference was placed in.
  [[nodiscard]] virtual Region region_of(u32 port) const = 0;
  /// Buddy only: how many live placements' regions hold `port`.
  [[nodiscard]] virtual u32 cover(u32 port) const noexcept = 0;

  /// Choose one additional port for an existing conference (dynamic join).
  /// Under buddy placement the new member must fit inside the conference's
  /// region (no migration); nullopt = blocked.
  [[nodiscard]] virtual std::optional<u32> expand(
      const std::vector<u32>& current, util::Rng& rng) = 0;

  /// Release a single member's port (dynamic leave). Buddy regions stay
  /// covered until the full placement is released.
  virtual void release_one(u32 port) = 0;

  /// Return ports taken by a previous place() or place_shared_into() call
  /// (plus any expansions of that conference, minus single releases).
  /// Under buddy the region's cover drops and what it leaves uncovered
  /// returns to the buddy allocator.
  virtual void release(const std::vector<u32>& ports) = 0;

  /// Feasibility watermark, exact: false guarantees place(size) would
  /// return nullopt right now (and consume no RNG), true that it would
  /// succeed; monotone in size. Lets hold queues skip tickets that cannot
  /// possibly be admitted yet, and lets SessionManager's repack probe
  /// without losing the window it holds.
  [[nodiscard]] virtual bool placeable(u32 size) const noexcept = 0;
};

/// Reference implementation: linear scans over a taken bitmap. O(N) per
/// placement — the oracle the hierarchical-bitmap fast path is tested
/// against, not the backend production configs run.
class PortPlacer final : public PlacerBase {
 public:
  PortPlacer(u32 n, PlacementPolicy policy);

  [[nodiscard]] PlacementPolicy policy() const noexcept override {
    return policy_;
  }
  [[nodiscard]] u32 free_ports() const noexcept override;

  [[nodiscard]] bool occupied(u32 port) const noexcept override {
    return port < taken_.size() && taken_[port];
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
  friend void audit::check_placer(const ::confnet::conf::PortPlacer&);

  /// The region place_shared_into() would enter (PlacerBase documents the
  /// choice), or nullopt.
  [[nodiscard]] std::optional<Region> shared_region(u32 size) const;

  u32 n_;
  PlacementPolicy policy_;
  BuddyAllocator buddy_;
  std::vector<bool> taken_;
  u32 taken_count_ = 0;
  RegionBook book_;  // empty unless kBuddy
};

/// Build the selected backend (defined in port_index.cpp, which sees both
/// implementations).
[[nodiscard]] std::unique_ptr<PlacerBase> make_placer(u32 n,
                                                      PlacementPolicy policy,
                                                      PlacerBackend backend);

}  // namespace confnet::conf
