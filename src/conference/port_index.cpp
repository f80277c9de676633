#include "conference/port_index.hpp"

#include <algorithm>

#include "min/network.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/thread_annotations.hpp"

namespace confnet::conf {

BitmapBuddyAllocator::BitmapBuddyAllocator(u32 n)
    : n_(n), free_ports_(u32{1} << n) {
  expects(n >= 1 && n <= 20, "BitmapBuddyAllocator needs 1 <= n <= 20");
  free_.reserve(n + 1);
  for (u32 order = 0; order <= n; ++order)
    free_.emplace_back((u32{1} << n) >> order, false);
  free_[n].set(0);  // one block covering everything
}

CONFNET_HOT std::optional<u32> BitmapBuddyAllocator::allocate(u32 order) {
  expects(order <= n_, "allocation order beyond network size");
  u32 have = order;
  while (have <= n_ && free_[have].count() == 0) ++have;
  if (have > n_) return std::nullopt;
  // Highest-base block at the lowest sufficient order — the same choice as
  // BuddyAllocator's free_[have].back(), so both backends split the same
  // block and return the same base.
  auto idx = static_cast<u32>(free_[have].find_last());
  free_[have].reset(idx);
  // Split down, keeping the upper halves free.
  while (have > order) {
    --have;
    idx <<= 1;
    free_[have].set(idx | 1u);
  }
  free_ports_ -= u32{1} << order;
  const u32 base = idx << order;
  // static_check: allow(hot-alloc) live-block tracking, audit builds only
  if constexpr (audit::kEnabled) allocated_.emplace(base, order);
  return base;
}

CONFNET_HOT void BitmapBuddyAllocator::release(u32 base, u32 order) {
  expects(order <= n_, "release order beyond network size");
  expects((base & ((u32{1} << order) - 1)) == 0, "release base misaligned");
  if constexpr (audit::kEnabled) {
    const auto live = allocated_.find({base, order});
    expects(live != allocated_.end(),
            "release of a block that is not currently allocated");
    allocated_.erase(live);
  }
  expects(free_ports_ + (u32{1} << order) <= size(),
          "release frees more ports than exist (double free)");
  free_ports_ += u32{1} << order;
  u32 idx = base >> order;
  u32 ord = order;
  while (ord < n_ && free_[ord].test(idx ^ 1u)) {
    free_[ord].reset(idx ^ 1u);  // absorb the buddy...
    idx >>= 1;                   // ...into the parent block
    ++ord;
  }
  // HierBitset::set refuses a bit that is already set, which doubles as the
  // same-order duplicate-free check BuddyAllocator keeps in release builds.
  free_[ord].set(idx);
}

bool BitmapBuddyAllocator::can_allocate(u32 order) const {
  expects(order <= n_, "order beyond network size");
  for (u32 o = order; o <= n_; ++o)
    if (free_[o].count() != 0) return true;
  return false;
}

FastPortPlacer::FastPortPlacer(u32 n, PlacementPolicy policy)
    : n_(n), policy_(policy) {
  expects(n >= 1 && n <= min::Network::kMaxStages,
          "FastPortPlacer needs 1 <= n <= Network::kMaxStages");
  free_ = util::HierBitset(u32{1} << n, true);
  if (policy_ != PlacementPolicy::kBuddy) return;
  buddy_ = BitmapBuddyAllocator(n);
  block_order_.assign(u32{1} << n, 0);
}

bool FastPortPlacer::place_into(u32 size, util::Rng& rng,
                                std::vector<u32>& ports) {
  expects(size >= 2, "conferences need at least two members");
  ports.clear();
  if (size > free_ports()) return false;
  switch (policy_) {
    case PlacementPolicy::kBuddy: {
      const u32 order = util::log2_ceil(size);
      if (order > n_) return false;
      const auto base = buddy_.allocate(order);
      if (!base) return false;
      block_order_[*base] = static_cast<std::uint8_t>(order + 1);
      ports.reserve(size);
      for (u32 i = 0; i < size; ++i) {
        ports.push_back(*base + i);
        free_.reset(*base + i);
      }
      break;
    }
    case PlacementPolicy::kFirstFit: {
      ports.reserve(size);
      std::size_t p = free_.find_first();
      for (u32 i = 0; i < size; ++i) {
        ports.push_back(static_cast<u32>(p));
        free_.reset(p);
        if (i + 1 < size) p = free_.find_first_at_least(p + 1);
      }
      break;
    }
    case PlacementPolicy::kRandom: {
      // The PlacerBase draw-sequence contract: without-replacement rank
      // sampling, one below(free_count) draw per member. select() is the
      // O(1) answer to the rank the reference finds by list erasure.
      ports.reserve(size);
      for (u32 i = 0; i < size; ++i) {
        const auto rank = static_cast<std::size_t>(rng.below(free_.count()));
        const std::size_t p = free_.select(rank);
        ports.push_back(static_cast<u32>(p));
        free_.reset(p);
      }
      std::sort(ports.begin(), ports.end());
      break;
    }
  }
  return true;
}

CONFNET_HOT std::optional<u32> FastPortPlacer::expand(
    const std::vector<u32>& current, util::Rng& rng) {
  expects(!current.empty(), "expand of empty placement");
  if (free_ports() == 0) return std::nullopt;
  std::optional<u32> port;
  switch (policy_) {
    case PlacementPolicy::kBuddy: {
      // The new member must live inside the conference's own block.
      const auto [base, order] = find_buddy_block(current.front());
      const std::size_t p = free_.find_first_at_least(base);
      if (p != util::HierBitset::npos && p < base + (u32{1} << order))
        port = static_cast<u32>(p);
      break;
    }
    case PlacementPolicy::kFirstFit: {
      port = static_cast<u32>(free_.find_first());
      break;
    }
    case PlacementPolicy::kRandom: {
      const auto rank = static_cast<std::size_t>(rng.below(free_.count()));
      port = static_cast<u32>(free_.select(rank));
      break;
    }
  }
  if (!port) return std::nullopt;
  free_.reset(*port);
  return port;
}

CONFNET_HOT void FastPortPlacer::release_one(u32 port) {
  expects(occupied(port), "release of unplaced port");
  free_.set(port);
  // Under buddy placement the block remains owned by the conference; it is
  // returned wholesale by release().
}

CONFNET_HOT void FastPortPlacer::release(const std::vector<u32>& ports) {
  expects(!ports.empty(), "release of empty placement");
  for (u32 p : ports) {
    expects(occupied(p), "release of unplaced port");
    free_.set(p);
  }
  if (policy_ == PlacementPolicy::kBuddy) {
    const auto [base, order] = find_buddy_block(ports.front());
    buddy_.release(base, order);
    block_order_[base] = 0;
  }
}

CONFNET_HOT bool FastPortPlacer::placeable(u32 size) const noexcept {
  if (size > free_ports()) return false;
  if (policy_ != PlacementPolicy::kBuddy) return true;
  const u32 order = util::log2_ceil(size);
  return order <= n_ && buddy_.can_allocate(order);
}

std::pair<u32, u32> FastPortPlacer::find_buddy_block(u32 port) const {
  for (u32 order = 0; order <= n_; ++order) {
    const u32 base = port & ~((u32{1} << order) - 1);
    if (block_order_[base] == order + 1) return {base, order};
  }
  expects(false, "port is not inside any live buddy block");
  return {0, 0};  // unreachable
}

std::unique_ptr<PlacerBase> make_placer(u32 n, PlacementPolicy policy,
                                        PlacerBackend backend) {
  if (backend == PlacerBackend::kReference)
    return std::make_unique<PortPlacer>(n, policy);
  return std::make_unique<FastPortPlacer>(n, policy);
}

}  // namespace confnet::conf

namespace confnet::audit {

void check_placer(const conf::FastPortPlacer& placer) {
  constexpr std::string_view kSub = "placement";
  using conf::u32;
  constexpr std::size_t npos = util::HierBitset::npos;

  // Index self-check through the public query surface: the find_first /
  // find_first_at_least walk must enumerate exactly the bits test() shows
  // set, count() must agree, and select(i) must invert the walk. A summary
  // level out of sync with the leaves breaks one of these.
  const util::HierBitset& free = placer.free_;
  std::vector<std::size_t> walk;
  for (std::size_t p = free.find_first(); p != npos;
       p = free.find_first_at_least(p + 1))
    walk.push_back(p);
  require(walk.size() == free.count(), kSub,
          "free-bit walk disagrees with the bitmap's count");
  std::size_t tested = 0;
  for (std::size_t p = 0; p < free.size(); ++p)
    if (free.test(p)) ++tested;
  require(tested == free.count(), kSub,
          "per-bit occupancy disagrees with the bitmap's count");
  for (std::size_t i = 0; i < walk.size(); ++i)
    require(free.select(i) == walk[i], kSub,
            "select() disagrees with the free-bit walk");

  if (placer.policy_ != conf::PlacementPolicy::kBuddy) return;

  // Rebuild plain free lists from the per-order bitmaps and the live block
  // set from the flat base->order table, then reuse the raw buddy tiling
  // checker. The allocator's own tracking set (audit builds only) must
  // agree with the table.
  const conf::BitmapBuddyAllocator& buddy = placer.buddy_;
  std::vector<std::vector<u32>> free_lists(buddy.n_ + 1);
  for (u32 order = 0; order <= buddy.n_; ++order)
    for (std::size_t b = buddy.free_[order].find_first(); b != npos;
         b = buddy.free_[order].find_first_at_least(b + 1))
      free_lists[order].push_back(static_cast<u32>(b) << order);
  std::vector<std::pair<u32, u32>> live;
  for (u32 base = 0; base < placer.block_order_.size(); ++base)
    if (placer.block_order_[base] != 0)
      live.emplace_back(base, u32{placer.block_order_[base]} - 1);
  check_buddy_state(free_lists, live, buddy.n_, buddy.free_ports_);
  if constexpr (kEnabled) {
    require(std::equal(buddy.allocated_.begin(), buddy.allocated_.end(),
                       live.begin(), live.end()),
            kSub, "allocator live-block set diverges from the block table");
  }
  // Every taken port lies inside one of the live blocks.
  std::vector<bool> in_block(free.size(), false);
  for (const auto& [base, order] : live)
    for (u32 p = base; p < base + (u32{1} << order); ++p) in_block[p] = true;
  for (std::size_t p = 0; p < free.size(); ++p)
    require(free.test(p) || in_block[p], kSub,
            "taken port outside every live buddy block");
}

void check_placer(const conf::PlacerBase& placer) {
  if (const auto* fast = dynamic_cast<const conf::FastPortPlacer*>(&placer)) {
    check_placer(*fast);
    return;
  }
  if (const auto* ref = dynamic_cast<const conf::PortPlacer*>(&placer)) {
    check_placer(*ref);
    return;
  }
  fail("placement", "unknown PlacerBase implementation");
}

}  // namespace confnet::audit
