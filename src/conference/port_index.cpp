#include "conference/port_index.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "min/network.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/thread_annotations.hpp"

namespace confnet::conf {

FastPortPlacer::FastPortPlacer(u32 n, PlacementPolicy policy)
    : n_(n), policy_(policy) {
  expects(n >= 1 && n <= min::Network::kMaxStages,
          "FastPortPlacer needs 1 <= n <= Network::kMaxStages");
  free_ = util::HierBitset(u32{1} << n, true);
  if (policy_ == PlacementPolicy::kBuddy) book_ = RegionBook(n);
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
      const std::optional<Region> block = free_block(order);
      if (!block) return false;
      const Region region{block->base, order};
      book_.cover_region(region);
      ports.reserve(size);
      for (u32 i = 0; i < size; ++i) {
        ports.push_back(region.base + i);
        free_.reset(region.base + i);
        book_.record(region.base + i, region);
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

namespace {

/// Low halves of the 2^(k+1)-bit fields of a word, k = 0 .. 5.
constexpr std::array<std::uint64_t, 6> kLowHalves = {
    0x5555555555555555u, 0x3333333333333333u, 0x0f0f0f0f0f0f0f0fu,
    0x00ff00ff00ff00ffu, 0x0000ffff0000ffffu, 0x00000000ffffffffu};

/// Each 2^order-bit field of `x` replaced by its count of set bits
/// (order <= 5, so every count fits its field).
constexpr std::uint64_t field_counts(std::uint64_t x, u32 order) {
  for (u32 k = 0; k < order; ++k)
    x = (x & kLowHalves[k]) + ((x >> (u32{1} << k)) & kLowHalves[k]);
  return x;
}

/// Bit 0 of each 2^order-bit field of a word, order <= 6.
constexpr std::uint64_t field_bases(u32 order) {
  return order == 6 ? 1
                    : ~std::uint64_t{0} /
                          ((std::uint64_t{1} << (u32{1} << order)) - 1);
}

/// A region's ports within each 64-port word it touches.
constexpr std::uint64_t word_mask(Region region) {
  const u32 span = u32{1} << region.order;
  return span < 64 ? ((std::uint64_t{1} << span) - 1) << (region.base % 64)
                   : ~std::uint64_t{0};
}

}  // namespace

CONFNET_HOT std::optional<Region> FastPortPlacer::free_block(
    u32 order) const {
  // Orders ascending, each read from the book's uncovered bits a 64-port
  // word at a time, words descending so that an order's first hit is its
  // highest-based. A block below 64 ports is a field of its word: folding
  // the word onto itself with ANDs leaves a field's bit 0 set when the
  // whole field is uncovered, and the field is maximal when its buddy, the
  // other half of the field one order up, is not. A larger block is a run
  // of wholly uncovered words. An order with no wholly uncovered block has
  // none above it either.
  const auto words = static_cast<u32>((free_.size() + 63) / 64);
  const std::uint64_t in_range = free_.size() < 64
                                     ? (std::uint64_t{1} << free_.size()) - 1
                                     : ~std::uint64_t{0};
  for (u32 o = order; o <= n_; ++o) {
    bool any = false;
    if (o < 6) {
      const u32 width = u32{1} << o;
      const std::uint64_t pairs = field_bases(o + 1);
      for (u32 w = words; w-- > 0;) {
        std::uint64_t whole = book_.cover_bits(w, 0) & in_range;
        for (u32 k = 0; k < o; ++k) whole &= whole >> (u32{1} << k);
        whole &= field_bases(o);
        const std::uint64_t buddies =
            ((whole >> width) & pairs) | ((whole & pairs) << width);
        if (const std::uint64_t maximal = whole & ~buddies; maximal != 0)
          return Region{
              w * 64 + 63 - static_cast<u32>(std::countl_zero(maximal)), o};
        any = any || whole != 0;
      }
    } else {
      const u32 span = u32{1} << (o - 6);
      const auto whole = [&](u32 first) {
        for (u32 w = first; w < first + span; ++w)
          if (book_.cover_bits(w, 0) != ~std::uint64_t{0}) return false;
        return true;
      };
      if (o == n_) return whole(0) ? std::optional{Region{0, o}} : std::nullopt;
      for (u32 first = words; first != 0;) {
        first -= 2 * span;
        const bool low = whole(first);
        const bool high = whole(first + span);
        if (high != low) return Region{(high ? first + span : first) * 64, o};
        any = any || low;
      }
    }
    if (!any) return {};
  }
  return {};
}

std::optional<Region> FastPortPlacer::shared_region(u32 size,
                                                    u32 limit) const {
  expects(size >= 2, "conferences need at least two members");
  expects(limit >= 1 && limit <= RegionBook::kMaxCover,
          "a cover limit of 1 .. RegionBook::kMaxCover");
  if (policy_ != PlacementPolicy::kBuddy || size > free_ports()) return {};
  const u32 order = util::log2_ceil(size);
  if (order > n_ || free_block(order)) return {};
  // Orders ascending, bases ascending, keeping only a strictly better
  // (uncovered, room) pair, all read a 64-port word at a time from the
  // free-port words and the book's cover bits. A region below 64 ports
  // is a field of its word: its room, its ports covered `limit` times
  // and its uncovered ports are per-field counts, and one borrow-free
  // subtraction per field marks the regions with room and none full (a
  // count, at most the field's width w, never reaches its top bit 2^(w-1)
  // once w >= 4; at w = 2 the size is 2, and room 2 is the top bit). A
  // larger region covers whole words.
  const auto words = static_cast<u32>((free_.size() + 63) / 64);
  for (u32 o = order; o <= n_; ++o) {
    std::optional<Region> best;
    std::pair<u32, u32> best_rank{0, 0};
    const auto consider = [&](u32 base, u32 uncovered, u32 room) {
      if (!best || std::pair{uncovered, room} > best_rank) {
        best = Region{base, o};
        best_rank = {uncovered, room};
      }
    };
    if (o < 6) {
      const u32 width = u32{1} << o;
      const std::uint64_t field = (std::uint64_t{1} << width) - 1;
      const std::uint64_t low = field_bases(o);
      const std::uint64_t high = low << (width - 1);
      for (u32 w = 0; w < words; ++w) {
        if (util::popcount(free_.word(w)) < size) continue;
        const std::uint64_t room = field_counts(free_.word(w), o);
        const std::uint64_t full_ports = book_.cover_bits(w, limit);
        const std::uint64_t full =
            full_ports == 0 ? 0 : field_counts(full_ports, o);
        std::uint64_t fits =
            o == 1 ? room & ~(full | full << 1) & high
                   : ((room | high) - size * low) & ~((full | high) - low) &
                         high;
        if (fits == 0) continue;
        const std::uint64_t uncovered =
            field_counts(book_.cover_bits(w, 0), o);
        for (; fits != 0; fits &= fits - 1) {
          const auto shift =
              static_cast<u32>(std::countr_zero(fits)) & ~(width - 1);
          consider(w * 64 + shift, static_cast<u32>((uncovered >> shift) & field),
                   static_cast<u32>((room >> shift) & field));
        }
      }
    } else {
      const u32 span_words = u32{1} << (o - 6);
      for (u32 first = 0; first < words; first += span_words) {
        u32 room = 0;
        u32 uncovered = 0;
        bool full = false;
        for (u32 w = first; w < first + span_words; ++w) {
          room += util::popcount(free_.word(w));
          full = full || book_.cover_bits(w, limit) != 0;
          uncovered += util::popcount(book_.cover_bits(w, 0));
        }
        if (room >= size && !full) consider(first * 64, uncovered, room);
      }
    }
    if (best) return best;
  }
  return {};
}

bool FastPortPlacer::place_shared_into(u32 size, u32 limit,
                                       std::vector<u32>& ports) {
  ports.clear();
  const std::optional<Region> region = shared_region(size, limit);
  if (!region) return false;
  // The region's least-covered free ports first (the uncovered ones are
  // space buddy fragmentation left, which no conference grows into), the
  // lowest first among equals, a 64-port word at a time.
  const std::uint64_t in_region = word_mask(*region);
  ports.reserve(size);
  for (u32 cover = 0; cover < limit; ++cover) {
    for (u32 w = region->base / 64;
         w <= (region->end() - 1) / 64 && ports.size() < size; ++w) {
      for (std::uint64_t take =
               free_.word(w) & in_region & book_.cover_bits(w, cover);
           take != 0 && ports.size() < size; take &= take - 1)
        ports.push_back(w * 64 + static_cast<u32>(std::countr_zero(take)));
    }
  }
  std::sort(ports.begin(), ports.end());
  for (u32 p : ports) {
    free_.reset(p);
    book_.record(p, *region);
  }
  book_.cover_region(*region);
  return true;
}

CONFNET_HOT std::optional<u32> FastPortPlacer::expand(
    const std::vector<u32>& current, util::Rng& rng) {
  expects(!current.empty(), "expand of empty placement");
  if (free_ports() == 0) return std::nullopt;
  std::optional<u32> port;
  switch (policy_) {
    case PlacementPolicy::kBuddy: {
      // The new member must live inside the conference's own region: its
      // least-covered free port, lowest first. A port other regions nested
      // in this one also cover is their conferences' room to grow; a free
      // port of a live region is covered at least once, so the search
      // reads the region's free ports one cover at a time from 1 up.
      const Region region = book_.region_of(current.front());
      const std::uint64_t in_region = word_mask(region);
      for (u32 cover = 1; !port && cover <= RegionBook::kMaxCover; ++cover) {
        for (u32 w = region.base / 64; !port && w <= (region.end() - 1) / 64;
             ++w) {
          const std::uint64_t take =
              free_.word(w) & in_region & book_.cover_bits(w, cover);
          if (take != 0)
            port = w * 64 + static_cast<u32>(std::countr_zero(take));
        }
      }
      if (port) book_.record(*port, region);
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
  // Under buddy placement the region stays covered by the conference; it
  // is uncovered by release().
  if (policy_ == PlacementPolicy::kBuddy) book_.clear(port);
}

CONFNET_HOT void FastPortPlacer::release(const std::vector<u32>& ports) {
  expects(!ports.empty(), "release of empty placement");
  const bool buddy = policy_ == PlacementPolicy::kBuddy;
  const Region region = buddy ? book_.region_of(ports.front()) : Region{};
  for (u32 p : ports) {
    expects(occupied(p), "release of unplaced port");
    free_.set(p);
    if (buddy) book_.clear(p);
  }
  if (buddy) book_.uncover_region(region);
}

CONFNET_HOT bool FastPortPlacer::placeable(u32 size) const noexcept {
  if (size > free_ports()) return false;
  if (policy_ != PlacementPolicy::kBuddy) return true;
  const u32 order = util::log2_ceil(size);
  return order <= n_ && free_block(order).has_value();
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

  std::vector<bool> taken(free.size());
  for (std::size_t p = 0; p < free.size(); ++p) taken[p] = !free.test(p);
  check_region_book(placer.book_, taken);
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
