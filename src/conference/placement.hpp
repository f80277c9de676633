// Port placement: how the switching system assigns member ports to a new
// conference. The paper's enhanced design realizes each conference "in an
// indirect binary cube-like subnetwork depending on its location", which
// presumes the system places conferences on aligned blocks (buddy
// allocation). Arbitrary (first-fit / random) placement is the adversarial
// alternative that exposes the full Theta(sqrt N) conflict multiplicity.
//
// A buddy placement records its *region* per port: the aligned block it
// was placed in. An ordinary placement's region is its own buddy block.
// Regions are aligned, so any two are nested or disjoint; a port's *cover*
// is the number of live regions holding it, and the buddy free space is
// defined as the ports of cover 0: a buddy open takes the smallest maximal
// aligned block of them that is large enough (see place_into()), and a
// release only steps its region's cover down. When no such block is left,
// SessionManager::open takes a second, shared step (place_shared_into): it
// places the conference in an aligned region that other conferences'
// regions already cover, the smallest one with room none of whose ports is
// covered L times, on the region's least-covered free ports first. L, the
// cover limit, is the fabric's narrowest interstage channel count clamped
// to 2 .. RegionBook::kMaxCover = 4 (2 on a kind without orthogonal
// windows), so no port is covered more than L times. DESIGN.md's cover bound (R2 generalized) says why sharing is safe:
// a link carries at most as many conferences as cover its crossing port,
// so a fabric with d channels per link admits every group whose region's
// cover stays <= d, and a buddy-placed fabric with d >= 2 never looks at a
// link.
//
// Two interchangeable allocator backends sit behind `PlacerBase`:
//  * `FastPortPlacer` (port_index.hpp) — the admission fast path, a
//    hierarchical bitmap occupancy index that reads the region book a
//    64-port word at a time;
//  * `PortPlacer` (below) — the original linear-scan implementation, kept
//    as the reference oracle. Randomized equivalence tests pin the two to
//    exact port-set equality under identical RNG streams, which requires
//    both to implement the same draw sequence per policy and the same
//    block choice (see place_into()) and the same shared-region choice
//    (see place_shared_into()).
#pragma once

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

/// Buddy placement's per-port bookkeeping, shared by both backends: the
/// order of the region each occupied port's conference was placed in (a
/// byte a port), and each port's cover, the live regions holding it (three
/// bit planes, a count up to kMaxCover). Empty unless buddy.
class RegionBook {
 public:
  /// The most regions that ever hold one port. An aligned placement
  /// covers only uncovered ports and the shared step enters only regions
  /// no port of which is covered `limit` times (at most kMaxCover), so a
  /// shared conference overlaps at most limit - 1 layers of regions and no
  /// link carries more than `limit` buddy conferences (DESIGN.md R2′).
  static constexpr u32 kMaxCover = 4;

  RegionBook() = default;
  explicit RegionBook(u32 n);

  /// Region of occupied `port`'s conference.
  [[nodiscard]] Region region_of(u32 port) const;
  [[nodiscard]] u32 cover(u32 port) const {
    return port < order_.size() ? cover_.at(port) : 0;
  }
  /// Whether the shared step may enter `region` under cover limit `limit`:
  /// none of its ports is covered `limit` times.
  [[nodiscard]] bool shareable(Region region, u32 limit) const {
    return !cover_.any_equal(region.base, size_of(region), limit);
  }
  /// Ports of `region` no region covers (all of them free).
  [[nodiscard]] u32 uncovered_in(Region region) const {
    return static_cast<u32>(cover_.count_equal(region.base, size_of(region), 0));
  }

  /// Of ports 64·word .. 64·word + 63, those covered exactly `cover` times,
  /// as bits: cover 0 is the buddy free space, cover `limit` the ports the
  /// shared step keeps out of.
  [[nodiscard]] std::uint64_t cover_bits(std::size_t word, u32 cover) const {
    return cover_.equal_bits(word, cover);
  }

  /// Record `port` as placed in `region`, or as free.
  void record(u32 port, Region region) {
    order_[port] = static_cast<std::uint8_t>(region.order + 1);
  }
  void clear(u32 port) { order_[port] = 0; }

  /// One more live region: `region`, uncovered or a shareable region.
  void cover_region(Region region) {
    cover_.step(region.base, size_of(region), true);
  }
  /// One live region fewer.
  void uncover_region(Region region) {
    cover_.step(region.base, size_of(region), false);
  }

 private:
  friend void audit::check_region_book(const ::confnet::conf::RegionBook&,
                                       const std::vector<bool>&);

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
  /// Buddy takes the *free block*: of the maximal aligned blocks of
  /// uncovered ports (those whose buddy is not wholly uncovered too) of
  /// order at least log2_ceil(size), the smallest, highest-based at that
  /// order; the conference's region is that block's lowest 2^order ports
  /// and it uses their lowest `size`.
  [[nodiscard]] virtual bool place_into(u32 size, util::Rng& rng,
                                        std::vector<u32>& ports) = 0;

  /// place_into a fresh vector; nullopt = placement blocked.
  [[nodiscard]] std::optional<std::vector<u32>> place(u32 size,
                                                      util::Rng& rng) {
    std::vector<u32> ports;
    if (!place_into(size, rng, ports)) return std::nullopt;
    return ports;
  }

  /// The shared step of a buddy open, for when no free block (see
  /// place_into()) of order log2_ceil(size) or above is left. `limit`
  /// (1 .. RegionBook::kMaxCover) is the cover limit: among the aligned
  /// regions of at least that order with `size` free ports that are
  /// RegionBook::shareable under it, choose the smallest; then the one
  /// with the most uncovered ports (space fragmentation left, which no
  /// conference grows into), then the most free ports (so the room it
  /// takes from the conferences already there is the least needed), then
  /// the lowest-based. Every candidate is covered somewhere (a wholly
  /// uncovered one would hold a free block) and nowhere `limit` times.
  /// Take `size` of its free ports into `ports` (cleared first; sorted),
  /// the least covered first and the lowest first among equals, and cover
  /// the region. Draws nothing; false, changing nothing except emptying
  /// `ports`, when a free block is left, when no region qualifies, or
  /// under the other policies.
  [[nodiscard]] virtual bool place_shared_into(u32 size, u32 limit,
                                               std::vector<u32>& ports) = 0;

  /// Buddy only: the region occupied `port`'s conference was placed in.
  [[nodiscard]] virtual Region region_of(u32 port) const = 0;
  /// Buddy only: how many live placements' regions hold `port`.
  [[nodiscard]] virtual u32 cover(u32 port) const noexcept = 0;

  /// Choose one additional port for an existing conference (dynamic join).
  /// Under buddy placement the new member must fit inside the conference's
  /// region (no migration): its least-covered free port, the lowest among
  /// equals; nullopt = blocked.
  [[nodiscard]] virtual std::optional<u32> expand(
      const std::vector<u32>& current, util::Rng& rng) = 0;

  /// Release a single member's port (dynamic leave). Buddy regions stay
  /// covered until the full placement is released.
  virtual void release_one(u32 port) = 0;

  /// Return ports taken by a previous place() or place_shared_into() call
  /// (plus any expansions of that conference, minus single releases).
  /// Under buddy the region's cover drops by one.
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
  friend void audit::check_placer(const ::confnet::conf::PortPlacer&);

  /// The free block of at least `order` that place_into() takes
  /// (PlacerBase documents the choice), or nullopt.
  [[nodiscard]] std::optional<Region> free_block(u32 order) const;
  /// The region place_shared_into() would enter (PlacerBase documents the
  /// choice), or nullopt.
  [[nodiscard]] std::optional<Region> shared_region(u32 size,
                                                    u32 limit) const;

  u32 n_;
  PlacementPolicy policy_;
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
