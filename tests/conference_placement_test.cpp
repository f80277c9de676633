// Buddy placement on both backends and the three placement policies.
#include "conference/placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "util/audit.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace confnet::conf {
namespace {

// Buddy placement on both backends, whose free space is the region book's
// uncovered ports.
class BuddyBackends : public ::testing::TestWithParam<PlacerBackend> {
 protected:
  [[nodiscard]] std::unique_ptr<PlacerBase> placer(u32 n) const {
    return make_placer(n, PlacementPolicy::kBuddy, GetParam());
  }
  util::Rng rng_{8};
};

TEST_P(BuddyBackends, PlacesAlignedBlocks) {
  const auto buddy = placer(5);
  for (u32 size : {2u, 3u, 4u, 5u}) {
    const auto ports = buddy->place(size, rng_);
    ASSERT_TRUE(ports.has_value()) << size;
    const u32 block = u32{1} << util::log2_ceil(size);
    EXPECT_EQ(ports->front() % block, 0u) << size;
    EXPECT_LT(ports->back(), ports->front() + block) << size;
    EXPECT_EQ(buddy->region_of(ports->front()),
              (Region{ports->front(), util::log2_ceil(size)}));
  }
}

TEST_P(BuddyBackends, FillsWithPairs) {
  const auto buddy = placer(4);
  std::set<u32> taken;
  std::vector<std::vector<u32>> pairs;
  while (auto ports = buddy->place(2, rng_)) {
    for (u32 p : *ports) EXPECT_TRUE(taken.insert(p).second) << p;
    EXPECT_EQ(ports->front() % 2, 0u);
    pairs.push_back(std::move(*ports));
  }
  EXPECT_EQ(taken.size(), 16u);  // fully packed with pairs
  EXPECT_FALSE(buddy->placeable(2));
  for (const auto& ports : pairs) buddy->release(ports);
  EXPECT_EQ(buddy->free_ports(), 16u);
}

TEST_P(BuddyBackends, CoalescesBackToTheWholeNetwork) {
  const auto buddy = placer(3);
  const auto a = buddy->place(4, rng_);
  const auto b = buddy->place(4, rng_);
  ASSERT_TRUE(a && b);
  EXPECT_FALSE(buddy->placeable(4));
  buddy->release(*a);
  buddy->release(*b);
  // With both halves uncovered again, a whole-network open fits at base 0.
  const auto whole = buddy->place(8, rng_);
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->front(), 0u);
}

TEST_P(BuddyBackends, FragmentationRefusesALargerBlock) {
  const auto buddy = placer(3);
  std::vector<std::vector<u32>> pairs;
  for (int i = 0; i < 4; ++i) {
    auto ports = buddy->place(2, rng_);
    ASSERT_TRUE(ports.has_value());
    pairs.push_back(std::move(*ports));
  }
  // Free two pair blocks that are not buddies of each other: four ports
  // are free, but no aligned 4-block is.
  std::sort(pairs.begin(), pairs.end());
  buddy->release(pairs[0]);
  buddy->release(pairs[2]);
  EXPECT_EQ(buddy->free_ports(), 4u);
  EXPECT_FALSE(buddy->placeable(4));
  EXPECT_FALSE(buddy->place(4, rng_).has_value());
  EXPECT_TRUE(buddy->placeable(2));
}

TEST_P(BuddyBackends, DoubleReleaseThrows) {
  const auto buddy = placer(3);
  const auto ports = buddy->place(2, rng_);
  ASSERT_TRUE(ports.has_value());
  buddy->release(*ports);
  EXPECT_THROW(buddy->release(*ports), Error);
  EXPECT_EQ(buddy->free_ports(), 8u);
}

INSTANTIATE_TEST_SUITE_P(BothBackends, BuddyBackends,
                         ::testing::Values(PlacerBackend::kFast,
                                           PlacerBackend::kReference),
                         [](const auto& info) {
                           return std::string(info.param == PlacerBackend::kFast
                                                  ? "fast"
                                                  : "reference");
                         });

class PlacerSuite : public ::testing::TestWithParam<PlacementPolicy> {};

TEST_P(PlacerSuite, PlacesDisjointPorts) {
  util::Rng rng(1);
  PortPlacer placer(4, GetParam());
  std::set<u32> taken;
  std::vector<std::vector<u32>> placements;
  for (int i = 0; i < 4; ++i) {
    auto ports = placer.place(3, rng);
    ASSERT_TRUE(ports.has_value());
    EXPECT_EQ(ports->size(), 3u);
    EXPECT_TRUE(std::is_sorted(ports->begin(), ports->end()));
    for (u32 p : *ports) {
      EXPECT_LT(p, 16u);
      EXPECT_FALSE(taken.count(p));
      taken.insert(p);
    }
    placements.push_back(std::move(*ports));
  }
  for (const auto& p : placements) placer.release(p);
  EXPECT_EQ(placer.free_ports(), 16u);
}

TEST_P(PlacerSuite, ReleaseMakesRoomAgain) {
  util::Rng rng(2);
  PortPlacer placer(3, GetParam());
  std::vector<std::vector<u32>> all;
  while (auto p = placer.place(2, rng)) all.push_back(std::move(*p));
  EXPECT_GE(all.size(), 1u);
  const auto count = all.size();
  for (const auto& p : all) placer.release(p);
  // The same number of conferences fits again.
  for (std::size_t i = 0; i < count; ++i)
    EXPECT_TRUE(placer.place(2, rng).has_value());
}

TEST_P(PlacerSuite, RejectsWhenFull) {
  util::Rng rng(3);
  PortPlacer placer(2, GetParam());
  EXPECT_TRUE(placer.place(4, rng).has_value());
  EXPECT_FALSE(placer.place(2, rng).has_value());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PlacerSuite,
                         ::testing::Values(PlacementPolicy::kBuddy,
                                           PlacementPolicy::kFirstFit,
                                           PlacementPolicy::kRandom),
                         [](const auto& info) {
                           std::string s(placement_name(info.param));
                           for (auto& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

TEST(FirstFitPlacement, TakesLowestPorts) {
  util::Rng rng(5);
  PortPlacer placer(3, PlacementPolicy::kFirstFit);
  const auto a = placer.place(3, rng);
  EXPECT_EQ(*a, (std::vector<u32>{0, 1, 2}));
  const auto b = placer.place(2, rng);
  EXPECT_EQ(*b, (std::vector<u32>{3, 4}));
  placer.release(*a);
  const auto c = placer.place(2, rng);
  EXPECT_EQ(*c, (std::vector<u32>{0, 1}));
}

TEST(BuddyPlacement, SurvivesChurnWithoutLeaks) {
  util::Rng rng(6);
  PortPlacer placer(5, PlacementPolicy::kBuddy);
  std::vector<std::vector<u32>> live;
  for (int step = 0; step < 500; ++step) {
    if (!live.empty() && rng.chance(0.45)) {
      const auto idx = static_cast<std::size_t>(rng.below(live.size()));
      placer.release(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      const u32 size = 2 + static_cast<u32>(rng.below(7));
      if (auto p = placer.place(size, rng)) live.push_back(std::move(*p));
    }
  }
  for (const auto& p : live) placer.release(p);
  EXPECT_EQ(placer.free_ports(), 32u);
  // Everything coalesced: a full-network conference fits.
  EXPECT_TRUE(placer.place(32, rng).has_value());
}

TEST(Placement, SizeValidation) {
  util::Rng rng(7);
  PortPlacer placer(3, PlacementPolicy::kFirstFit);
  EXPECT_THROW((void)placer.place(1, rng), Error);
  EXPECT_THROW(placer.release({}), Error);
}

// Golden buddy churn: opens (with the shared step once no aligned block
// is free, under cover limit `limit`), joins, leaves and closes at n = 6
// and n = 10 on both backends. The fingerprint folds in every returned
// port set and every member's region, so it pins which block each buddy
// open takes.
struct ChurnPrint {
  u64 hash = 0xcbf29ce484222325ull;
  u32 shared = 0;
  u32 peak_cover = 0;
  void mix(u64 x) { hash = (hash ^ x) * 0x100000001b3ull; }
};

ChurnPrint buddy_churn(u32 n, PlacerBackend backend, u32 limit) {
  const auto placer = make_placer(n, PlacementPolicy::kBuddy, backend);
  util::Rng rng(n);
  util::Rng script(0x60d + n);
  ChurnPrint print;
  std::vector<std::vector<u32>> live;
  const auto mix_ports = [&](const std::vector<u32>& ports) {
    print.mix(ports.size());
    for (u32 p : ports) {
      const Region region = placer->region_of(p);
      print.mix((u64{p} << 32) | (u64{region.base} << 8) | region.order);
    }
  };
  const u32 max_size = u32{1} << (n - 2);
  std::vector<u32> ports;
  for (int step = 0; step < 3000; ++step) {
    const u64 action = script.below(8);
    if (action < 4 || live.empty()) {
      const u32 size = 2 + static_cast<u32>(script.below(max_size - 1));
      if (placer->place_into(size, rng, ports)) {
        print.mix(1);
      } else if (placer->place_shared_into(size, limit, ports)) {
        print.mix(2);
        ++print.shared;
        const Region region = placer->region_of(ports.front());
        for (u32 p = region.base; p < region.end(); ++p)
          print.peak_cover = std::max(print.peak_cover, placer->cover(p));
      } else {
        print.mix(3);
        continue;
      }
      mix_ports(ports);
      live.push_back(ports);
    } else if (action < 6) {
      const auto idx = static_cast<std::size_t>(script.below(live.size()));
      placer->release(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      print.mix(4);
    } else if (action == 6) {
      const auto idx = static_cast<std::size_t>(script.below(live.size()));
      const auto port = placer->expand(live[idx], rng);
      print.mix(port ? 5 + (u64{*port} << 8) : 6);
      if (!port) continue;
      live[idx].insert(
          std::lower_bound(live[idx].begin(), live[idx].end(), *port), *port);
      mix_ports(live[idx]);
    } else {
      const auto idx = static_cast<std::size_t>(script.below(live.size()));
      if (live[idx].size() <= 2) continue;
      const auto at =
          static_cast<std::ptrdiff_t>(script.below(live[idx].size()));
      placer->release_one(live[idx][static_cast<std::size_t>(at)]);
      live[idx].erase(live[idx].begin() + at);
      print.mix(7);
      mix_ports(live[idx]);
    }
    audit::check_placer(*placer);
  }
  for (u32 p = 0; p < (u32{1} << n); ++p) print.mix(placer->cover(p));
  return print;
}

TEST(BuddyGolden, ChurnFingerprintIsPinned) {
  for (const auto& [n, want] : {std::pair<u32, u64>{6, 0x43f0850c0d82b0c1ull},
                                 {10, 0x1f39ed0962972ed3ull}}) {
    for (const auto backend :
         {PlacerBackend::kFast, PlacerBackend::kReference}) {
      const ChurnPrint print = buddy_churn(n, backend, 2);
      EXPECT_GT(print.shared, 0u) << "n=" << n;
      EXPECT_EQ(print.hash, want) << "n=" << n;
    }
  }
}

TEST(BuddyGolden, FourDeepChurnFingerprintIsPinned) {
  // The same churn sharing up to four layers deep, as on a fabric of four
  // channels a link.
  for (const auto& [n, want] : {std::pair<u32, u64>{6, 0x28d35575d26f1da8ull},
                                 {10, 0x3d1715cb9c9cf756ull}}) {
    for (const auto backend :
         {PlacerBackend::kFast, PlacerBackend::kReference}) {
      const ChurnPrint print = buddy_churn(n, backend, 4);
      EXPECT_EQ(print.peak_cover, 4u) << "n=" << n;
      EXPECT_EQ(print.hash, want) << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace confnet::conf
