// Channel assignment on dilated links: first-fit indices, all-or-nothing
// allocation, audit consistency, agreement with the load-count admission
// of the direct design.
#include "analysis/switchmod/channels.hpp"

#include <gtest/gtest.h>

#include "analysis/conference/multiplicity.hpp"
#include "conference/subnetwork.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace confnet::sw {
namespace {

using min::Kind;
using min::u32;

std::vector<u32> uniform_caps(u32 n, u32 d) {
  std::vector<u32> caps(n + 1, d);
  caps.front() = caps.back() = 1;
  return caps;
}

TEST(Channels, FirstFitIndices) {
  ChannelTable table(3, uniform_caps(3, 4));
  const min::LevelLinks links{{}, {5}, {}, {}};
  const auto a = table.assign(0, links);
  const auto b = table.assign(1, links);
  const auto c = table.assign(2, links);
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ((*a)[0].channel, 0u);
  EXPECT_EQ((*b)[0].channel, 1u);
  EXPECT_EQ((*c)[0].channel, 2u);
  EXPECT_EQ(table.occupancy(1, 5), 3u);
  // Releasing the middle group frees its index for reuse.
  table.release(1);
  const auto d = table.assign(3, links);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ((*d)[0].channel, 1u);
  EXPECT_TRUE(table.consistent());
}

TEST(Channels, AllOrNothingOnFullLink) {
  ChannelTable table(3, uniform_caps(3, 1));
  const min::LevelLinks wide{{}, {0, 1}, {3}, {}};
  ASSERT_TRUE(table.assign(0, wide).has_value());
  // Overlaps on level-2 row 3 only; level-1 rows are free, but nothing may
  // be partially taken.
  const min::LevelLinks overlap{{}, {4}, {3}, {}};
  EXPECT_FALSE(table.assign(1, overlap).has_value());
  EXPECT_EQ(table.occupancy(1, 4), 0u);
  EXPECT_TRUE(table.consistent());
}

TEST(Channels, CapacityRespectedPerLevel) {
  std::vector<u32> caps{1, 2, 4, 2, 1};
  ChannelTable table(4, caps);
  const min::LevelLinks links{{}, {}, {7}, {}, {}};
  for (u32 g = 0; g < 4; ++g) EXPECT_TRUE(table.assign(g, links).has_value());
  EXPECT_FALSE(table.assign(9, links).has_value());
  EXPECT_EQ(table.occupancy(2, 7), 4u);
}

TEST(Channels, ReleaseValidation) {
  ChannelTable table(3, uniform_caps(3, 2));
  EXPECT_THROW(table.release(42), Error);
  const min::LevelLinks links{{}, {0}, {}, {}};
  ASSERT_TRUE(table.assign(1, links).has_value());
  EXPECT_THROW((void)table.assign(1, links), Error);  // double hold
  table.release(1);
  EXPECT_THROW(table.release(1), Error);
}

TEST(Channels, AgreesWithMultiplicityAnalyzer) {
  // A conference set with measured peak m fits a ChannelTable of capacity m
  // and fails at m-1 — mirroring the admission test at the design level.
  util::Rng rng(5);
  const u32 n = 5;
  for (Kind kind : min::kAllKinds) {
    conf::ConferenceSet set(32);
    conf::PortPlacer placer(n, conf::PlacementPolicy::kRandom);
    for (u32 id = 0; id < 6; ++id) {
      if (auto ports = placer.place(3, rng))
        set.add(conf::Conference(id, std::move(*ports)));
    }
    const auto prof = conf::measure_multiplicity(kind, n, set);
    const u32 m = std::max(prof.peak, 1u);

    ChannelTable enough(n, uniform_caps(n, m));
    bool all = true;
    for (const auto& c : set.conferences()) {
      const auto links = conf::all_pairs_links(kind, n, c.members());
      all = all && enough.assign(c.id(), links).has_value();
    }
    EXPECT_TRUE(all) << min::kind_name(kind);
    EXPECT_TRUE(enough.consistent());

    if (m >= 2) {
      ChannelTable tight(n, uniform_caps(n, m - 1));
      bool refused = false;
      for (const auto& c : set.conferences()) {
        const auto links = conf::all_pairs_links(kind, n, c.members());
        refused = refused || !tight.assign(c.id(), links).has_value();
      }
      EXPECT_TRUE(refused) << min::kind_name(kind);
    }
  }
}

TEST(Channels, ValidatesConstruction) {
  EXPECT_THROW(ChannelTable(3, {1, 1}), Error);            // wrong size
  EXPECT_THROW(ChannelTable(3, {1, 0, 1, 1}), Error);      // zero capacity
  EXPECT_THROW(ChannelTable(3, {1, 65, 1, 1}), Error);     // too wide
}

}  // namespace
}  // namespace confnet::sw
