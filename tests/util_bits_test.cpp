#include "util/bits.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace confnet::util {
namespace {

TEST(Bits, Log2Ceil) {
  EXPECT_EQ(log2_ceil(1), 0u);
  EXPECT_EQ(log2_ceil(2), 1u);
  EXPECT_EQ(log2_ceil(3), 2u);
  EXPECT_EQ(log2_ceil(4), 2u);
  EXPECT_EQ(log2_ceil(5), 3u);
  EXPECT_EQ(log2_ceil(1025), 11u);
  EXPECT_THROW(log2_ceil(0), Error);
}

TEST(Bits, BitAccess) {
  EXPECT_EQ(bit(0b1010, 1), 1u);
  EXPECT_EQ(bit(0b1010, 0), 0u);
}

TEST(Bits, ReverseBits) {
  EXPECT_EQ(reverse_bits_n(0b0001, 4), 0b1000u);
  EXPECT_EQ(reverse_bits_n(0b1101, 4), 0b1011u);
  // Involution.
  for (u64 x = 0; x < 128; ++x)
    EXPECT_EQ(reverse_bits_n(reverse_bits_n(x, 7), 7), x);
}

TEST(Bits, HighestBit) {
  EXPECT_EQ(highest_bit(1), 0u);
  EXPECT_EQ(highest_bit(0b1000), 3u);
  EXPECT_EQ(highest_bit(~u64{0}), 63u);
  EXPECT_THROW(highest_bit(0), Error);
}

TEST(Bits, ConstexprUsable) {
  static_assert(log2_ceil(64) == 6);
  static_assert(reverse_bits_n(0b110, 3) == 0b011);
  SUCCEED();
}

}  // namespace
}  // namespace confnet::util
