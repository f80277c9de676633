#include "util/bitset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/sliced_counts.hpp"

namespace confnet::util {
namespace {

TEST(DynBitset, StartsEmpty) {
  DynBitset b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_TRUE(b.none());
  EXPECT_EQ(b.count(), 0u);
}

TEST(DynBitset, SetTestReset) {
  DynBitset b(130);
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(DynBitset, OutOfRangeThrows) {
  DynBitset b(10);
  EXPECT_THROW(b.set(10), Error);
  EXPECT_THROW((void)b.test(11), Error);
  EXPECT_THROW(b.reset(100), Error);
}

TEST(DynBitset, FilledConstructor) {
  DynBitset b(70, true);
  EXPECT_EQ(b.count(), 70u);
  // The padding bits beyond size must not leak into count.
  DynBitset c(64, true);
  EXPECT_EQ(c.count(), 64u);
}

TEST(DynBitset, BitwiseOps) {
  DynBitset a(100), b(100);
  a.set(1);
  a.set(50);
  b.set(50);
  b.set(99);
  const DynBitset u = a | b;
  EXPECT_EQ(u.count(), 3u);
  const DynBitset i = a & b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(50));
  const DynBitset x = a ^ b;
  EXPECT_EQ(x.count(), 2u);
  EXPECT_TRUE(x.test(1));
  EXPECT_TRUE(x.test(99));
}

TEST(DynBitset, SizeMismatchThrows) {
  DynBitset a(10), b(20);
  EXPECT_THROW(a |= b, Error);
  EXPECT_THROW((void)a.intersects(b), Error);
}

TEST(DynBitset, Intersects) {
  DynBitset a(200), b(200);
  a.set(150);
  EXPECT_FALSE(a.intersects(b));
  b.set(150);
  EXPECT_TRUE(a.intersects(b));
  b.reset(150);
  b.set(151);
  EXPECT_FALSE(a.intersects(b));
}

TEST(DynBitset, SubsetOf) {
  DynBitset a(100), b(100);
  a.set(3);
  b.set(3);
  b.set(7);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.is_subset_of(a));
}

TEST(DynBitset, FindFirstNext) {
  DynBitset b(200);
  EXPECT_EQ(b.find_first(), 200u);
  b.set(5);
  b.set(64);
  b.set(199);
  EXPECT_EQ(b.find_first(), 5u);
  EXPECT_EQ(b.find_next(5), 64u);
  EXPECT_EQ(b.find_next(64), 199u);
  EXPECT_EQ(b.find_next(199), 200u);
}

TEST(DynBitset, ForEachVisitsAscending) {
  DynBitset b(300);
  const std::vector<std::uint32_t> want{0, 63, 64, 128, 299};
  for (auto i : want) b.set(i);
  std::vector<std::uint32_t> got;
  b.for_each([&](std::size_t i) { got.push_back(static_cast<std::uint32_t>(i)); });
  EXPECT_EQ(got, want);
  EXPECT_EQ(b.to_indices(), want);
}

TEST(DynBitset, Equality) {
  DynBitset a(50), b(50);
  EXPECT_EQ(a, b);
  a.set(10);
  EXPECT_FALSE(a == b);
  b.set(10);
  EXPECT_EQ(a, b);
}

TEST(DynBitset, RandomizedAgainstReference) {
  Rng rng(99);
  DynBitset b(257);
  std::vector<bool> ref(257, false);
  for (int step = 0; step < 3000; ++step) {
    const auto i = static_cast<std::size_t>(rng.below(257));
    if (rng.chance(0.5)) {
      b.set(i);
      ref[i] = true;
    } else {
      b.reset(i);
      ref[i] = false;
    }
  }
  std::size_t want_count = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(b.test(i), ref[i]);
    want_count += ref[i];
  }
  EXPECT_EQ(b.count(), want_count);
}

TEST(DynBitset, RangesAgainstReference) {
  Rng rng(7);
  DynBitset b(200);
  std::vector<bool> ref(200, false);
  for (int step = 0; step < 3000; ++step) {
    const auto first = static_cast<std::size_t>(rng.below(201));
    const auto count = static_cast<std::size_t>(rng.below(201 - first));
    bool want_any = false;
    for (std::size_t i = first; i < first + count; ++i) want_any |= ref[i];
    ASSERT_EQ(b.any_in(first, count), want_any)
        << "[" << first << ", +" << count << ")";
    const bool value = rng.chance(0.5);
    b.assign_range(first, count, value);
    for (std::size_t i = first; i < first + count; ++i) ref[i] = value;
  }
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(b.test(i), ref[i]);
  EXPECT_FALSE(b.any_in(200, 0));
  EXPECT_THROW((void)b.any_in(150, 51), Error);
  EXPECT_THROW(b.assign_range(201, 0, true), Error);
}

TEST(DynBitset, Clear) {
  DynBitset b(100, true);
  b.clear();
  EXPECT_TRUE(b.none());
}

/// `planes`-bit counts (0 .. 2^planes - 1), 256 of them, moved by random
/// aligned blocks of 1 to 256 that keep every count in range; every query
/// is checked against a plain vector after each step.
void check_against_count_model(u32 planes) {
  constexpr std::size_t kSize = 256;
  const u32 top = (u32{1} << planes) - 1;
  SlicedCounts counts(kSize, planes);
  std::vector<u32> model(kSize, 0);
  Rng rng(5);
  u32 peak = 0;
  for (int step = 0; step < 2000; ++step) {
    const auto order = static_cast<u32>(rng.below(9));
    const std::size_t len = std::size_t{1} << order;
    const std::size_t first = rng.below(kSize >> order) << order;
    const auto lo = model.begin() + static_cast<std::ptrdiff_t>(first);
    const auto hi = lo + static_cast<std::ptrdiff_t>(len);
    const bool add = *std::max_element(lo, hi) < top &&
                     (*std::min_element(lo, hi) == 0 || rng.below(2) == 0);
    if (!add && *std::min_element(lo, hi) == 0) continue;
    counts.step(first, len, add);
    for (auto it = lo; it != hi; ++it) *it += add ? 1 : -1;
    peak = std::max(peak, *std::max_element(lo, hi));
    for (u32 value = 0; value <= top + 1; ++value) {
      const auto expected = static_cast<std::size_t>(
          std::count(lo, hi, value));
      ASSERT_EQ(counts.count_equal(first, len, value), expected) << step;
      ASSERT_EQ(counts.any_equal(first, len, value), expected != 0) << step;
    }
    for (std::size_t i = 0; i < kSize; ++i) ASSERT_EQ(counts.at(i), model[i]);
    for (u32 value = 0; value <= top + 1; ++value)
      ASSERT_EQ(counts.any_above(value),
                std::any_of(model.begin(), model.end(),
                            [&](u32 c) { return c > value; }))
          << step;
    for (std::size_t w = 0; w < kSize / 64; ++w) {
      for (u32 value = 0; value <= top + 1; ++value) {
        u64 bits = 0;
        for (std::size_t i = 0; i < 64; ++i)
          bits |= u64{model[w * 64 + i] == value} << i;
        ASSERT_EQ(counts.equal_bits(w, value), bits) << step;
      }
    }
  }
  EXPECT_EQ(peak, top);
  EXPECT_EQ(counts.all_zero(),
            std::all_of(model.begin(), model.end(),
                        [](u32 c) { return c == 0; }));
  counts.clear();
  EXPECT_TRUE(counts.all_zero());
  EXPECT_EQ(counts.count_equal(0, kSize, 0), kSize);
  EXPECT_EQ(counts.equal_bits(0, 0), ~u64{0});
}

TEST(SlicedCounts, AlignedStepsMatchAPlainCountModel) {
  check_against_count_model(2);
}

TEST(SlicedCounts, ThreePlanesHoldTheBuddyCoverUpToSeven) {
  // The region book's planes: covers 0 .. 4 and beyond, each word's
  // "equal to c" read at every c.
  check_against_count_model(3);
}

}  // namespace
}  // namespace confnet::util
