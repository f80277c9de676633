// The flat per-level link-row type: nested round trips, empty levels,
// block reuse, equality and the offset checks validate_realization relies
// on.
#include "min/level_links.hpp"

#include <gtest/gtest.h>

#include <vector>


namespace confnet::min {
namespace {

using Rows = std::vector<std::vector<u32>>;

TEST(LevelLinks, NestedRoundTrip) {
  for (const Rows& rows :
       {Rows{{0, 1}, {1}, {}}, Rows{{}, {}, {}, {}}, Rows{{5}},
        Rows{{0, 2, 4}, {}, {1, 3}, {7}}}) {
    const LevelLinks links(rows);
    EXPECT_TRUE(links.well_formed());
    EXPECT_EQ(links.levels(), rows.size());
    EXPECT_EQ(links.nested(), rows);
    EXPECT_EQ(LevelLinks(links.nested()), links);
    for (u32 l = 0; l < links.levels(); ++l)
      EXPECT_EQ(std::vector<u32>(links[l].begin(), links[l].end()), rows[l]);
  }
}

TEST(LevelLinks, LayoutIsOffsetsThenRows) {
  const LevelLinks links{{0, 1}, {}, {6}};
  // 4 offsets (3 levels + end), then the 3 rows.
  EXPECT_EQ(links.words(), (std::vector<u32>{4, 6, 6, 7, 0, 1, 6}));
  EXPECT_EQ(links.base(0), 0u);
  EXPECT_EQ(links.base(1), 2u);
  EXPECT_EQ(links.base(2), 2u);
  EXPECT_EQ(links.base(3), 3u);
}

TEST(LevelLinks, EmptyLevels) {
  const LevelLinks empty{{}, {}, {}};
  EXPECT_EQ(empty.levels(), 3u);
  EXPECT_TRUE(empty.well_formed());
  for (u32 l = 0; l < 3; ++l) EXPECT_TRUE(empty[l].empty());
  EXPECT_EQ(empty.base(3), 0u);

  // Zero levels: every way to build one is the same value.
  const LevelLinks none;
  EXPECT_EQ(none.levels(), 0u);
  EXPECT_TRUE(none.well_formed());
  EXPECT_EQ(none, LevelLinks(Rows{}));
  EXPECT_EQ(none, LevelLinks(std::vector<u32>{}));
  EXPECT_TRUE(none.nested().empty());
}

TEST(LevelLinks, CountsConstructorSizesEveryLevel) {
  const std::vector<u32> counts{2, 0, 1};
  LevelLinks links(counts);
  EXPECT_EQ(links.levels(), 3u);
  EXPECT_TRUE(links.well_formed());
  links.rows(0)[0] = 3;
  links.rows(0)[1] = 4;
  links.rows(2)[0] = 9;
  EXPECT_EQ(links, (LevelLinks{{3, 4}, {}, {9}}));
}

TEST(LevelLinks, ReshapeKeepsABlockLargeEnough) {
  LevelLinks links(std::vector<u32>{3, 3, 3});  // 13 words, capacity 16
  const u32* block = links.words().data();
  links.reshape(std::vector<u32>{1, 0});  // 4 words fit
  EXPECT_EQ(links.words().data(), block);
  EXPECT_EQ(links, (LevelLinks{{0}, {}}));
  links.reshape(std::vector<u32>{20});  // 22 words do not: capacity 32
  EXPECT_EQ(links.words().capacity(), 32u);
  EXPECT_EQ(links.levels(), 1u);
  EXPECT_TRUE(links.well_formed());
}

TEST(LevelLinks, EqualityComparesLevelsAndRows) {
  EXPECT_EQ((LevelLinks{{1}, {2}}), (LevelLinks{{1}, {2}}));
  // Same rows, different level split.
  EXPECT_NE((LevelLinks{{1}, {2}}), (LevelLinks{{1, 2}, {}}));
  // Same rows, different level count.
  EXPECT_NE((LevelLinks{{1}, {2}}), (LevelLinks{{1}, {2}, {}}));
  EXPECT_NE((LevelLinks{{1}, {2}}), (LevelLinks{{1}, {3}}));
}

TEST(LevelLinks, WellFormedChecksTheOffsets) {
  EXPECT_TRUE(LevelLinks::from_words({2, 3, 7}).well_formed());  // {{7}}
  EXPECT_FALSE(LevelLinks::from_words({0}).well_formed());  // no end offset
  EXPECT_FALSE(LevelLinks::from_words({5, 5}).well_formed());  // past end
  EXPECT_FALSE(LevelLinks::from_words({3, 5, 4, 1, 2}).well_formed());
  EXPECT_FALSE(LevelLinks::from_words({2, 2, 7}).well_formed());  // short
  EXPECT_FALSE(LevelLinks::from_words({2, 4, 7}).well_formed());  // long
}

}  // namespace
}  // namespace confnet::min
