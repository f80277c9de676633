#include "conference/placement.hpp"

#include <algorithm>

#include "util/bits.hpp"
#include "util/error.hpp"

namespace confnet::conf {

BuddyAllocator::BuddyAllocator(u32 n) : n_(n), free_ports_(u32{1} << n) {
  expects(n >= 1 && n <= 20, "BuddyAllocator needs 1 <= n <= 20");
  free_.resize(n + 1);
  free_[n].push_back(0);  // one block covering everything
}

std::optional<u32> BuddyAllocator::allocate(u32 order) {
  expects(order <= n_, "allocation order beyond network size");
  u32 have = order;
  while (have <= n_ && free_[have].empty()) ++have;
  if (have > n_) return std::nullopt;
  u32 base = free_[have].back();
  free_[have].pop_back();
  // Split down, keeping the upper halves free.
  while (have > order) {
    --have;
    free_[have].push_back(base + (u32{1} << have));
    std::sort(free_[have].begin(), free_[have].end());
  }
  free_ports_ -= u32{1} << order;
  if constexpr (audit::kEnabled) allocated_.emplace(base, order);
  return base;
}

void BuddyAllocator::release(u32 base, u32 order) {
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
  u32 cur = base;
  u32 ord = order;
  while (ord < n_) {
    const u32 buddy = cur ^ (u32{1} << ord);
    auto& list = free_[ord];
    const auto it = std::lower_bound(list.begin(), list.end(), buddy);
    if (it == list.end() || *it != buddy) break;
    list.erase(it);
    cur = std::min(cur, buddy);
    ++ord;
  }
  auto& list = free_[ord];
  const auto it = std::lower_bound(list.begin(), list.end(), cur);
  expects(it == list.end() || *it != cur, "double free in BuddyAllocator");
  list.insert(it, cur);
}

bool BuddyAllocator::can_allocate(u32 order) const {
  expects(order <= n_, "order beyond network size");
  for (u32 o = order; o <= n_; ++o)
    if (!free_[o].empty()) return true;
  return false;
}

PortPlacer::PortPlacer(u32 n, PlacementPolicy policy)
    : n_(n), policy_(policy), buddy_(n), taken_(u32{1} << n, false) {}

u32 PortPlacer::free_ports() const noexcept {
  return (u32{1} << n_) - taken_count_;
}

bool PortPlacer::place_into(u32 size, util::Rng& rng,
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
      buddy_blocks_[*base] = order;
      ports.reserve(size);
      for (u32 i = 0; i < size; ++i) ports.push_back(*base + i);
      break;
    }
    case PlacementPolicy::kFirstFit: {
      ports.reserve(size);
      for (u32 p = 0; p < taken_.size() && ports.size() < size; ++p)
        if (!taken_[p]) ports.push_back(p);
      if (ports.size() < size) return false;
      break;
    }
    case PlacementPolicy::kRandom: {
      // Without-replacement rank sampling: each draw picks the rank-th free
      // port in ascending order among the ports still free. This is the
      // draw-sequence contract of PlacerBase — the bitmap fast path answers
      // the same draws with O(1) rank-select instead of this O(N) list.
      std::vector<u32> free_list;
      free_list.reserve(free_ports());
      for (u32 p = 0; p < taken_.size(); ++p)
        if (!taken_[p]) free_list.push_back(p);
      ports.reserve(size);
      for (u32 i = 0; i < size; ++i) {
        const auto idx =
            static_cast<std::size_t>(rng.below(free_list.size()));
        ports.push_back(free_list[idx]);
        free_list.erase(free_list.begin() +
                        static_cast<std::ptrdiff_t>(idx));
      }
      std::sort(ports.begin(), ports.end());
      break;
    }
  }
  for (u32 p : ports) {
    expects(!taken_[p], "PortPlacer internal inconsistency");
    taken_[p] = true;
  }
  taken_count_ += size;
  return true;
}

std::optional<u32> PortPlacer::expand(const std::vector<u32>& current,
                                      util::Rng& rng) {
  expects(!current.empty(), "expand of empty placement");
  if (free_ports() == 0) return std::nullopt;
  std::optional<u32> port;
  switch (policy_) {
    case PlacementPolicy::kBuddy: {
      // The new member must live inside the conference's own block.
      const auto block = find_buddy_block(current.front());
      expects(block != buddy_blocks_.end(),
              "expand: placement is not buddy-allocated");
      const u32 base = block->first;
      const u32 end = base + (u32{1} << block->second);
      for (u32 p = base; p < end; ++p) {
        if (!taken_[p]) {
          port = p;
          break;
        }
      }
      break;
    }
    case PlacementPolicy::kFirstFit: {
      for (u32 p = 0; p < taken_.size(); ++p) {
        if (!taken_[p]) {
          port = p;
          break;
        }
      }
      break;
    }
    case PlacementPolicy::kRandom: {
      std::vector<u32> free_list;
      for (u32 p = 0; p < taken_.size(); ++p)
        if (!taken_[p]) free_list.push_back(p);
      if (!free_list.empty())
        port = free_list[rng.below(free_list.size())];
      break;
    }
  }
  if (!port) return std::nullopt;
  taken_[*port] = true;
  ++taken_count_;
  return port;
}

void PortPlacer::release_one(u32 port) {
  expects(port < taken_.size() && taken_[port], "release of unplaced port");
  taken_[port] = false;
  --taken_count_;
  // Under buddy placement the block remains owned by the conference; it is
  // returned wholesale by release().
}

void PortPlacer::release(const std::vector<u32>& ports) {
  expects(!ports.empty(), "release of empty placement");
  for (u32 p : ports) {
    expects(p < taken_.size() && taken_[p], "release of unplaced port");
    taken_[p] = false;
  }
  taken_count_ -= static_cast<u32>(ports.size());
  if (policy_ == PlacementPolicy::kBuddy) {
    const auto it = find_buddy_block(ports.front());
    expects(it != buddy_blocks_.end(),
            "buddy release must pass ports of one placed conference");
    buddy_.release(it->first, it->second);
    buddy_blocks_.erase(it);
  }
}

bool PortPlacer::placeable(u32 size) const noexcept {
  if (size > free_ports()) return false;
  if (policy_ != PlacementPolicy::kBuddy) return true;
  const u32 order = util::log2_ceil(size);
  return order <= n_ && buddy_.can_allocate(order);
}

std::map<u32, u32>::iterator PortPlacer::find_buddy_block(u32 port) {
  // Last block whose base is <= port, if the port falls inside it.
  auto it = buddy_blocks_.upper_bound(port);
  if (it == buddy_blocks_.begin()) return buddy_blocks_.end();
  --it;
  if (port >= it->first + (u32{1} << it->second)) return buddy_blocks_.end();
  return it;
}

}  // namespace confnet::conf

namespace confnet::audit {

void check_placer(const conf::PortPlacer& placer) {
  constexpr std::string_view kSub = "placement";
  using conf::u32;
  u32 taken = 0;
  for (bool b : placer.taken_)
    if (b) ++taken;
  require(taken == placer.taken_count_, kSub,
          "occupancy counter disagrees with the taken bitmap");
  if (placer.policy_ != conf::PlacementPolicy::kBuddy) return;

  // The placer's block table doubles as the allocated set: every
  // allocation flows through place()/release(), so the two views are equal
  // whenever the allocator's own tracking set is maintained (audit builds;
  // release builds do not pay for it — see BuddyAllocator::release).
  const conf::BuddyAllocator& buddy = placer.buddy_;
  const std::vector<std::pair<u32, u32>> live(placer.buddy_blocks_.begin(),
                                              placer.buddy_blocks_.end());
  check_buddy_state(buddy.free_, live, buddy.n_, buddy.free_ports_);
  if constexpr (kEnabled) {
    require(std::equal(buddy.allocated_.begin(), buddy.allocated_.end(),
                       live.begin(), live.end()),
            kSub, "allocator live-block set diverges from the placer's");
  }
  // Every taken port lies inside one of the live blocks.
  std::vector<bool> in_block(placer.taken_.size(), false);
  for (const auto& [base, order] : placer.buddy_blocks_) {
    for (u32 p = base; p < base + (u32{1} << order); ++p) in_block[p] = true;
  }
  for (std::size_t p = 0; p < placer.taken_.size(); ++p)
    require(!placer.taken_[p] || in_block[p], kSub,
            "taken port outside every live buddy block");
}

}  // namespace confnet::audit
