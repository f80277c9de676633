// Port placement: how the switching system assigns member ports to a new
// conference. The paper's enhanced design realizes each conference "in an
// indirect binary cube-like subnetwork depending on its location", which
// presumes the system places conferences on aligned blocks (buddy
// allocation). Arbitrary (first-fit / random) placement is the adversarial
// alternative that exposes the full Theta(sqrt N) conflict multiplicity.
//
// Two interchangeable allocator backends sit behind `PlacerBase`:
//  * `FastPortPlacer` (port_index.hpp) — the admission fast path, a
//    hierarchical bitmap occupancy index;
//  * `PortPlacer` (below) — the original linear-scan implementation, kept
//    as the reference oracle. Randomized equivalence tests pin the two to
//    exact port-set equality under identical RNG streams, which requires
//    both to implement the same draw sequence per policy (see place()).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "conference/conference.hpp"
#include "util/audit.hpp"
#include "util/rng.hpp"

namespace confnet::conf {

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

  /// Release a block previously returned by allocate(order). Buddies are
  /// coalesced eagerly. Full double-free/foreign-free detection runs in
  /// CONFNET_AUDIT builds; release builds keep two cheap guards (free-port
  /// counter overflow and same-order duplicate insertion).
  void release(u32 base, u32 order);

  /// Whether a block of the given order could be allocated right now.
  [[nodiscard]] bool can_allocate(u32 order) const;

 private:
  friend void audit::check_placer(const ::confnet::conf::PortPlacer&);

  u32 n_;
  u32 free_ports_;
  // free_[order] = sorted bases of free blocks of that order.
  std::vector<std::vector<u32>> free_;
  // Live allocations (base,order), for double-free/foreign-free detection.
  // Maintained only when audit::kEnabled — the per-session std::set
  // insert/erase is pure checking overhead on the admission hot path.
  std::set<std::pair<u32, u32>> allocated_;
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

  /// Choose one additional port for an existing conference (dynamic join).
  /// Under buddy placement the new member must fit inside the conference's
  /// block (no migration); nullopt = blocked.
  [[nodiscard]] virtual std::optional<u32> expand(
      const std::vector<u32>& current, util::Rng& rng) = 0;

  /// Release a single member's port (dynamic leave). Buddy blocks stay
  /// allocated until the full placement is released.
  virtual void release_one(u32 port) = 0;

  /// Return ports taken by a previous place() call (plus any expansions of
  /// that conference, minus single releases).
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

  [[nodiscard]] std::optional<u32> expand(const std::vector<u32>& current,
                                          util::Rng& rng) override;

  void release_one(u32 port) override;

  void release(const std::vector<u32>& ports) override;

  [[nodiscard]] bool placeable(u32 size) const noexcept override;

 private:
  friend void audit::check_placer(const ::confnet::conf::PortPlacer&);

  /// Buddy block containing `port`, or end().
  std::map<u32, u32>::iterator find_buddy_block(u32 port);

  u32 n_;
  PlacementPolicy policy_;
  BuddyAllocator buddy_;
  std::vector<bool> taken_;
  u32 taken_count_ = 0;
  // For buddy: block (base,order) keyed by base, to release correctly.
  std::map<u32, u32> buddy_blocks_;
};

/// Build the selected backend (defined in port_index.cpp, which sees both
/// implementations).
[[nodiscard]] std::unique_ptr<PlacerBase> make_placer(u32 n,
                                                      PlacementPolicy policy,
                                                      PlacerBackend backend);

}  // namespace confnet::conf
