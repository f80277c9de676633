#include "util/bitset.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/rng.hpp"

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

TEST(DynBitset, Clear) {
  DynBitset b(100, true);
  b.clear();
  EXPECT_TRUE(b.none());
}

}  // namespace
}  // namespace confnet::util
