#include "conference/placement.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/bits.hpp"
#include "util/error.hpp"

namespace confnet::conf {

RegionBook::RegionBook(u32 n)
    : order_(std::size_t{1} << n, 0),
      cover_(std::size_t{1} << n, std::bit_width(kMaxCover)) {}

Region RegionBook::region_of(u32 port) const {
  expects(port < order_.size() && order_[port] != 0,
          "region of a port no buddy placement holds");
  const u32 order = order_[port] - 1u;
  return {port & ~((u32{1} << order) - 1), order};
}

PortPlacer::PortPlacer(u32 n, PlacementPolicy policy)
    : n_(n), policy_(policy) {
  expects(n >= 1 && n <= 20, "PortPlacer needs 1 <= n <= 20");
  taken_.assign(u32{1} << n, false);
  if (policy_ == PlacementPolicy::kBuddy) book_ = RegionBook(n);
}

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
      const std::optional<Region> block = free_block(order);
      if (!block) return false;
      const Region region{block->base, order};
      book_.cover_region(region);
      ports.reserve(size);
      for (u32 i = 0; i < size; ++i) {
        ports.push_back(region.base + i);
        book_.record(region.base + i, region);
      }
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

std::optional<Region> PortPlacer::free_block(u32 order) const {
  // One pass per order, bases descending, over the book's uncovered ports
  // counted a 64-port word at a time: a block below 64 ports is a field of
  // its word, counted only when the word holds that many uncovered ports
  // at all, and a larger block sums its words' counts. The first wholly
  // uncovered block whose buddy is not wins; an order with no wholly
  // uncovered block has none above it either.
  const auto words = static_cast<u32>((taken_.size() + 63) / 64);
  const std::uint64_t in_range = taken_.size() < 64
                                     ? (std::uint64_t{1} << taken_.size()) - 1
                                     : ~std::uint64_t{0};
  const auto uncovered = [&](u32 w) {
    return book_.cover_bits(w, 0) & in_range;
  };
  for (u32 o = order; o <= n_; ++o) {
    const u32 width = u32{1} << o;
    bool any = false;
    if (o < 6) {
      const std::uint64_t field = (std::uint64_t{1} << width) - 1;
      const auto count = [&](std::uint64_t bits, u32 shift) {
        return util::popcount((bits >> shift) & field);
      };
      for (u32 w = words; w-- > 0;) {
        const std::uint64_t bits = uncovered(w);
        if (util::popcount(bits) < width) continue;
        // A wholly uncovered word's fields are whole, and so are their
        // buddies.
        if (bits == ~std::uint64_t{0}) {
          any = true;
          continue;
        }
        // The fields holding an uncovered port, highest first.
        for (std::uint64_t left = bits; left != 0;) {
          const u32 shift = (63 - static_cast<u32>(std::countl_zero(left))) &
                            ~(width - 1);
          left &= (std::uint64_t{1} << shift) - 1;
          if (count(bits, shift) != width) continue;
          any = true;
          if (o == n_ || count(bits, shift ^ width) != width)
            return Region{w * 64 + shift, o};
        }
      }
    } else {
      const u32 span = width / 64;
      const auto whole = [&](u32 first) {
        return book_.uncovered_in({first * 64, o}) == width;
      };
      for (u32 first = words; first != 0;) {
        first -= span;
        if (!whole(first)) continue;
        any = true;
        if (o == n_ || !whole(first ^ span)) return Region{first * 64, o};
      }
    }
    if (!any) return {};
  }
  return {};
}

std::optional<Region> PortPlacer::shared_region(u32 size, u32 limit) const {
  expects(size >= 2, "conferences need at least two members");
  expects(limit >= 1 && limit <= RegionBook::kMaxCover,
          "a cover limit of 1 .. RegionBook::kMaxCover");
  if (policy_ != PlacementPolicy::kBuddy || size > free_ports()) return {};
  const u32 order = util::log2_ceil(size);
  if (order > n_ || free_block(order)) return {};
  // Every region of every order from `order` up, each scanned port by
  // port; the first of the smallest order with the best (uncovered, room)
  // pair wins.
  for (u32 o = order; o <= n_; ++o) {
    std::optional<Region> best;
    std::pair<u32, u32> best_rank{0, 0};
    for (u32 base = 0; base < taken_.size(); base += u32{1} << o) {
      const Region region{base, o};
      u32 room = 0;
      u32 uncovered = 0;
      for (u32 p = base; p < region.end(); ++p) {
        room += taken_[p] ? 0u : 1u;
        uncovered += book_.cover(p) == 0 ? 1u : 0u;
      }
      if (room < size || !book_.shareable(region, limit)) continue;
      if (!best || std::pair{uncovered, room} > best_rank) {
        best = region;
        best_rank = {uncovered, room};
      }
    }
    if (best) return best;
  }
  return {};
}

bool PortPlacer::place_shared_into(u32 size, u32 limit,
                                   std::vector<u32>& ports) {
  ports.clear();
  const std::optional<Region> region = shared_region(size, limit);
  if (!region) return false;
  for (u32 cover = 0; cover < limit; ++cover)
    for (u32 p = region->base; p < region->end() && ports.size() < size; ++p)
      if (!taken_[p] && book_.cover(p) == cover) ports.push_back(p);
  std::sort(ports.begin(), ports.end());
  for (u32 p : ports) {
    taken_[p] = true;
    book_.record(p, *region);
  }
  taken_count_ += size;
  book_.cover_region(*region);
  return true;
}

std::optional<u32> PortPlacer::expand(const std::vector<u32>& current,
                                      util::Rng& rng) {
  expects(!current.empty(), "expand of empty placement");
  if (free_ports() == 0) return std::nullopt;
  std::optional<u32> port;
  switch (policy_) {
    case PlacementPolicy::kBuddy: {
      // The new member must live inside the conference's own region: its
      // least-covered free port, lowest first.
      const Region region = book_.region_of(current.front());
      for (u32 p = region.base; p < region.end(); ++p)
        if (!taken_[p] && (!port || book_.cover(p) < book_.cover(*port)))
          port = p;
      if (port) book_.record(*port, region);
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
  // Under buddy placement the region stays covered by the conference; it
  // is uncovered by release().
  if (policy_ == PlacementPolicy::kBuddy) book_.clear(port);
}

void PortPlacer::release(const std::vector<u32>& ports) {
  expects(!ports.empty(), "release of empty placement");
  const bool buddy = policy_ == PlacementPolicy::kBuddy;
  const Region region = buddy ? book_.region_of(ports.front()) : Region{};
  for (u32 p : ports) {
    expects(p < taken_.size() && taken_[p], "release of unplaced port");
    taken_[p] = false;
    if (buddy) book_.clear(p);
  }
  taken_count_ -= static_cast<u32>(ports.size());
  if (buddy) book_.uncover_region(region);
}

bool PortPlacer::placeable(u32 size) const noexcept {
  if (size > free_ports()) return false;
  if (policy_ != PlacementPolicy::kBuddy) return true;
  const u32 order = util::log2_ceil(size);
  return order <= n_ && free_block(order).has_value();
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

  check_region_book(placer.book_, placer.taken_);
}

void check_region_book(const conf::RegionBook& book,
                       const std::vector<bool>& taken) {
  constexpr std::string_view kSub = "placement";
  using conf::u32;
  const auto size = static_cast<u32>(book.order_.size());
  require(taken.size() == size, kSub,
          "region book and occupancy differ in size");
  for (u32 p = 0; p < size; ++p) {
    require(book.cover(p) <= conf::RegionBook::kMaxCover, kSub,
            "a port covered beyond the book's ceiling");
    require((book.order_[p] != 0) == taken[p], kSub,
            "a taken port records no region, or a free port records one");
    if (!taken[p]) continue;
    const conf::Region region = book.region_of(p);
    require(book.uncovered_in(region) == 0,
            kSub, "a taken port's region is not wholly covered");
  }
}

}  // namespace confnet::audit
