// The cover bound under buddy churn: R2 generalized from "disjoint aligned
// blocks share no link" to "a link carries at most as many conferences as
// there are enclosing blocks holding its crossing port". A buddy open that
// finds no free aligned block shares the smallest region with room none of
// whose ports is covered L times, L = min(d, 4) but at least 2 on a fabric
// of d channels a link (SessionManager::open's shared step), so the churn
// here runs past its aligned blocks on purpose. Two managers, one per
// placer backend, run the same script on twin fabrics; after every step
// the suite checks
//  * every conference lies in the region its placer recorded, and both
//    backends hold identical ports, regions and covers;
//  * the placer's per-port cover equals a recount of the live regions,
//    and no port is covered more than L times;
//  * every interstage load, recounted from the realizations, is at most
//    the cover of its link's crossing port;
//  * a fabric in R2 mode stays in it through a step that starts with no
//    port covered d times (d = the narrowest interstage capacity): the
//    mode is left only for a conference the cover bound cannot vouch for,
//    so a fabric of two or more channels never leaves it.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "conference/designs.hpp"
#include "conference/session.hpp"
#include "min/windows.hpp"

namespace confnet::conf {
namespace {

using min::Kind;

struct Design {
  std::string name;
  u32 dilation;  // channels on every link; the enhanced cube has one
  bool enhanced;
  u32 n = 6;
  u32 max_size = 12;  // opens draw 2 .. max_size members
};

std::unique_ptr<FabricConferenceNetwork> build(const Design& d, u32 n) {
  if (d.enhanced) return std::make_unique<EnhancedCubeNetwork>(n);
  return std::make_unique<DirectConferenceNetwork>(
      Kind::kIndirectCube, n, DilationProfile::uniform(n, d.dilation));
}

/// Smallest aligned block enclosing sorted `members`.
Region enclosing(const std::vector<u32>& members) {
  const auto order = static_cast<u32>(
      std::bit_width(members.front() ^ members.back()));
  return {members.front() & ~((u32{1} << order) - 1), order};
}

/// Highest placer cover over all ports.
u32 peak_cover(const PlacerBase& placer, u32 N) {
  u32 peak = 0;
  for (u32 p = 0; p < N; ++p) peak = std::max(peak, placer.cover(p));
  return peak;
}

void check_state(const SessionManager& m, const std::vector<u32>& live,
                 const std::string& where) {
  const auto& net = static_cast<const FabricConferenceNetwork&>(m.network());
  const PlacerBase& placer = m.placer();
  const u32 N = net.size();
  const u32 n = net.n();
  std::vector<u32> region_cover(N, 0);
  std::vector<u32> block_cover(N, 0);
  for (u32 id : live) {
    const std::vector<u32>& members = m.members_of(id);
    const Region region = placer.region_of(members.front());
    for (u32 p : members) {
      ASSERT_TRUE(region.contains(p)) << where << " session " << id;
      ASSERT_EQ(placer.region_of(p), region) << where << " session " << id;
    }
    for (u32 p = region.base; p < region.end(); ++p) ++region_cover[p];
    const Region block = enclosing(members);
    for (u32 p = block.base; p < block.end(); ++p) ++block_cover[p];
  }
  const u32 limit = std::clamp(net.narrowest_channels(), u32{2},
                               RegionBook::kMaxCover);
  for (u32 p = 0; p < N; ++p) {
    ASSERT_EQ(placer.cover(p), region_cover[p]) << where << " port " << p;
    ASSERT_LE(region_cover[p], limit) << where << " port " << p;
  }
  // The oracle: every group's realization, derived statelessly.
  std::vector<u32> load(std::size_t{N} * n, 0);
  for (u32 id : live) {
    const sw::GroupRealization g = net.fabric().realization(m.handle_of(id));
    for (u32 level = 1; level < n; ++level)
      for (u32 row : g.links[level]) ++load[std::size_t{level} * N + row];
  }
  for (u32 level = 1; level < n; ++level) {
    for (u32 row = 0; row < N; ++row) {
      const u32 port = min::crossing_port(
          min::in_window(net.kind(), n, level, row),
          min::out_window(net.kind(), n, level, row));
      ASSERT_LE(load[std::size_t{level} * N + row], block_cover[port])
          << where << " link " << level << "," << row;
    }
  }
}

/// What a churn reached: the opens admitted on a shared region and the
/// highest port cover.
struct Reached {
  u64 shared = 0;
  u32 peak_cover = 0;
};

/// Seeded open/join/leave/close churn that outgrows its aligned blocks;
/// adds what it reached to `reached`.
void churn(const Design& design, u64 seed, Reached& reached) {
  const u32 n = design.n;
  const u32 N = u32{1} << n;
  const auto fast_net = build(design, n);
  const auto ref_net = build(design, n);
  SessionManager fast(*fast_net, PlacementPolicy::kBuddy, PlacerBackend::kFast);
  SessionManager ref(*ref_net, PlacementPolicy::kBuddy,
                     PlacerBackend::kReference);
  util::Rng rng_fast(seed);
  util::Rng rng_ref(seed);
  util::Rng script(seed ^ 0x5eedu);
  std::vector<u32> live;
  for (u32 step = 0; step < 600; ++step) {
    const std::string where = design.name + " seed " + std::to_string(seed) +
                              " step " + std::to_string(step);
    const bool in_mode = fast_net->fabric().r2_mode();
    const bool within = peak_cover(fast.placer(), N) < design.dilation;
    const u64 op = script.below(10);
    if (op < 4 || live.empty()) {
      const auto size =
          static_cast<u32>(2 + script.below(design.max_size - 1));
      const auto a = fast.open(size, rng_fast);
      const auto b = ref.open(size, rng_ref);
      ASSERT_EQ(a, b) << where;
      if (a.second) live.push_back(*a.second);
    } else {
      const std::size_t at = script.below(live.size());
      const u32 id = live[at];
      if (op < 6) {
        ASSERT_EQ(fast.join(id, rng_fast), ref.join(id, rng_ref)) << where;
      } else if (op < 8) {
        const std::vector<u32>& members = fast.members_of(id);
        const u32 port = members[script.below(members.size())];
        ASSERT_EQ(fast.leave(id, port), ref.leave(id, port)) << where;
      } else {
        fast.close(id);
        ref.close(id);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
      }
    }
    if ((in_mode && within) || design.dilation >= 2) {
      ASSERT_TRUE(fast_net->fabric().r2_mode()) << where;
    }
    ASSERT_EQ(fast.stats(), ref.stats()) << where;
    for (u32 id : live)
      ASSERT_EQ(fast.members_of(id), ref.members_of(id)) << where;
    for (u32 p = 0; p < N; ++p)
      ASSERT_EQ(fast.placer().cover(p), ref.placer().cover(p)) << where;
    check_state(fast, live, where);
    check_state(ref, live, where);
    if (::testing::Test::HasFatalFailure()) return;
    reached.peak_cover =
        std::max(reached.peak_cover, peak_cover(fast.placer(), N));
  }
  reached.shared += fast.stats().shared;
}

TEST(CoverBound, BuddyChurnSharesWithinTheBoundOnEveryDesign) {
  const Design designs[] = {{"cube d=1", 1, false},
                            {"cube d=2", 2, false},
                            {"cube d=4", 4, false},
                            {"enhanced", 1, true},
                            // regions of many 64-port words
                            {"cube d=2 n=9", 2, false, 9, 150}};
  u64 seed = 3;
  for (const Design& d : designs) {
    Reached reached;
    for (int rep = 0; rep < 3; ++rep) churn(d, seed++, reached);
    // The churn reached the shared step, and the fabric admitted some of
    // it (at one channel only where the shared links happen to miss).
    EXPECT_GT(reached.shared, 0u) << d.name;
  }
}

TEST(CoverBound, SharedCoverReachesTheChannelCount) {
  // With d channels a link the shared step covers a port up to min(d, 4)
  // times, and the fabric, whose cover bound vouches for every such
  // window, never leaves R2 mode (the churn asserts it at every step).
  const Design designs[] = {{"cube d=3", 3, false},
                            {"cube d=4", 4, false},
                            {"cube d=8", 8, false},
                            {"cube d=4 n=9", 4, false, 9, 150}};
  u64 seed = 40;
  for (const Design& d : designs) {
    Reached reached;
    for (int rep = 0; rep < 3; ++rep) churn(d, seed++, reached);
    EXPECT_GT(reached.shared, 0u) << d.name;
    EXPECT_EQ(reached.peak_cover, std::min(d.dilation, RegionBook::kMaxCover))
        << d.name;
  }
}

TEST(CoverBound, SharedRegionsReturnToTheFreeSpaceWhenUncovered) {
  // n = 3: a size-5 conference takes the whole [0, 8), so a size-3 open
  // finds no free block of four and shares the smallest region with room:
  // [4, 8), where ports 5-7 are free. Closing the first conference returns
  // [0, 4), which no region covers any more, to the buddy free space;
  // closing both returns everything.
  DirectConferenceNetwork net(Kind::kIndirectCube, 3,
                              DilationProfile::uniform(3, 2));
  for (const PlacerBackend backend :
       {PlacerBackend::kFast, PlacerBackend::kReference}) {
    SessionManager m(net, PlacementPolicy::kBuddy, backend);
    util::Rng rng(1);
    const auto first = m.open(5, rng);
    ASSERT_EQ(first.first, OpenResult::kAccepted);
    ASSERT_FALSE(m.placeable(3));
    const auto second = m.open(3, rng);
    ASSERT_EQ(second.first, OpenResult::kAccepted);
    EXPECT_EQ(m.stats().shared, 1u);
    EXPECT_EQ(m.members_of(*second.second), (std::vector<u32>{5, 6, 7}));
    EXPECT_EQ(m.placer().region_of(5), (Region{4, 2}));
    for (u32 p = 0; p < 8; ++p)
      EXPECT_EQ(m.placer().cover(p), p < 4 ? 1u : 2u) << p;
    m.close(*first.second);
    for (u32 p = 0; p < 8; ++p)
      EXPECT_EQ(m.placer().cover(p), p < 4 ? 0u : 1u) << p;
    EXPECT_TRUE(m.placeable(4));
    EXPECT_FALSE(m.placeable(5));
    m.close(*second.second);
    EXPECT_TRUE(m.placeable(8));
    EXPECT_EQ(m.placer().free_ports(), 8u);
  }
}

}  // namespace
}  // namespace confnet::conf
