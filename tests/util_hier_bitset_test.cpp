// HierBitset: query answers across summary-level boundaries, randomized
// churn against a std::set reference, and contract violations.
#include "util/hier_bitset.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace confnet::util {
namespace {

constexpr std::size_t npos = HierBitset::npos;

TEST(HierBitset, EmptyAnswersNpos) {
  HierBitset bits(100);
  EXPECT_EQ(bits.size(), 100u);
  EXPECT_EQ(bits.count(), 0u);
  EXPECT_EQ(bits.find_first(), npos);
  EXPECT_EQ(bits.find_first_at_least(0), npos);
  EXPECT_FALSE(bits.test(99));
}

TEST(HierBitset, AllSetConstructor) {
  // Sizes straddling the word, one-summary-level and two-summary-level
  // boundaries (64 words = 4096 bits is the largest zero-summary size).
  for (std::size_t n : {1u, 63u, 64u, 65u, 4095u, 4096u, 4097u, 300000u}) {
    HierBitset bits(n, /*all_set=*/true);
    ASSERT_EQ(bits.count(), n) << n;
    EXPECT_EQ(bits.find_first(), 0u) << n;
    EXPECT_TRUE(bits.test(n - 1)) << n;
    EXPECT_EQ(bits.select(0), 0u) << n;
    EXPECT_EQ(bits.select(n - 1), n - 1) << n;
    EXPECT_EQ(bits.find_first_at_least(n - 1), n - 1) << n;
  }
}

TEST(HierBitset, SparseBitsAcrossLevels) {
  // Two summary levels: 300000 bits -> 4688 leaf words -> 74 -> 2.
  HierBitset bits(300000);
  const std::vector<std::size_t> set_bits = {0,     63,    64,     4095,
                                             4096,  65535, 131072, 262143,
                                             299999};
  for (std::size_t b : set_bits) bits.set(b);
  EXPECT_EQ(bits.count(), set_bits.size());
  EXPECT_EQ(bits.find_first(), 0u);
  // Walk forward through every set bit.
  std::size_t p = bits.find_first();
  for (std::size_t i = 0; i < set_bits.size(); ++i) {
    ASSERT_EQ(p, set_bits[i]);
    EXPECT_EQ(bits.select(i), set_bits[i]);
    p = bits.find_first_at_least(p + 1);
  }
  EXPECT_EQ(p, npos);
  // Clearing the extremes moves the lowest bit across level boundaries.
  bits.reset(0);
  bits.reset(299999);
  EXPECT_EQ(bits.find_first(), 63u);
  EXPECT_EQ(bits.find_first_at_least(4097), 65535u);
  EXPECT_EQ(bits.find_first_at_least(262144), npos);
}

TEST(HierBitset, RandomizedChurnMatchesSetReference) {
  for (std::size_t n : {97u, 4100u, 300000u}) {
    HierBitset bits(n);
    std::set<std::size_t> ref;
    Rng rng(n);
    for (int step = 0; step < 2000; ++step) {
      const auto i = static_cast<std::size_t>(rng.below(n));
      if (ref.count(i) == 0) {
        bits.set(i);
        ref.insert(i);
      } else {
        bits.reset(i);
        ref.erase(i);
      }
      ASSERT_EQ(bits.count(), ref.size());
      ASSERT_EQ(bits.find_first(), ref.empty() ? npos : *ref.begin());
      const auto probe = static_cast<std::size_t>(rng.below(n));
      const auto it = ref.lower_bound(probe);
      ASSERT_EQ(bits.find_first_at_least(probe),
                it == ref.end() ? npos : *it);
      if (!ref.empty()) {
        const auto rank = static_cast<std::size_t>(rng.below(ref.size()));
        ASSERT_EQ(bits.select(rank), *std::next(ref.begin(),
                                                static_cast<long>(rank)));
      }
    }
  }
}

TEST(HierBitset, ContractViolationsThrow) {
  HierBitset bits(70);
  EXPECT_THROW(bits.set(70), Error);
  EXPECT_THROW(bits.reset(70), Error);
  EXPECT_THROW((void)bits.test(70), Error);
  bits.set(5);
  EXPECT_THROW(bits.set(5), Error);     // re-set of a set bit
  EXPECT_THROW(bits.reset(6), Error);   // reset of a clear bit
  EXPECT_THROW((void)bits.select(1), Error);  // rank >= count
}

}  // namespace
}  // namespace confnet::util
