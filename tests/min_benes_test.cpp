// Benes rearrangeability: the looping algorithm must realize every
// permutation conflict-free; exhaustive at N=4, randomized beyond.
#include "analysis/min/benes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "min/wiring.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace confnet::min {
namespace {

std::vector<u32> routed(const BenesNetwork& net, const std::vector<u32>& perm) {
  return net.apply(net.route_permutation(perm));
}

TEST(Benes, StructureBasics) {
  const BenesNetwork net(4);
  EXPECT_EQ(net.size(), 16u);
  EXPECT_EQ(net.stage_count(), 7u);
  // Pairing bits: 3,2,1,0,1,2,3.
  const std::vector<u32> want{3, 2, 1, 0, 1, 2, 3};
  for (u32 s = 0; s < 7; ++s) EXPECT_EQ(net.stage_bit(s), want[s]);
  EXPECT_THROW((void)net.stage_bit(7), Error);
  EXPECT_EQ(net.crosspoints(), 7u * 8 * 4);
}

TEST(Benes, TrivialSize) {
  // N=2: one stage, one switch.
  const BenesNetwork net(1);
  EXPECT_EQ(net.stage_count(), 1u);
  EXPECT_EQ(routed(net, {0, 1}), (std::vector<u32>{0, 1}));
  EXPECT_EQ(routed(net, {1, 0}), (std::vector<u32>{1, 0}));
}

TEST(Benes, ExhaustiveAllPermutationsN4) {
  const BenesNetwork net(2);
  std::vector<u32> perm{0, 1, 2, 3};
  do {
    EXPECT_EQ(routed(net, perm), perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(Benes, ExhaustiveAllPermutationsN8Sampled) {
  // 8! = 40320: still exhaustive-feasible.
  const BenesNetwork net(3);
  std::vector<u32> perm{0, 1, 2, 3, 4, 5, 6, 7};
  do {
    ASSERT_EQ(routed(net, perm), perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(Benes, RandomPermutationsLargeN) {
  util::Rng rng(42);
  for (u32 n : {4u, 6u, 8u, 10u}) {
    const BenesNetwork net(n);
    std::vector<u32> perm(net.size());
    std::iota(perm.begin(), perm.end(), 0u);
    for (int trial = 0; trial < 50; ++trial) {
      rng.shuffle(std::span<u32>(perm));
      EXPECT_EQ(routed(net, perm), perm) << "n=" << n << " trial " << trial;
    }
  }
}

TEST(Benes, HardBanyanCasesAreEasyHere) {
  // The permutations that congest banyan networks worst route cleanly.
  const u32 n = 6;
  const BenesNetwork net(n);
  std::vector<u32> bitrev(net.size()), ident(net.size()), shift(net.size());
  for (u32 s = 0; s < net.size(); ++s) {
    bitrev[s] = static_cast<u32>(util::reverse_bits_n(s, n));
    ident[s] = s;
    shift[s] = (s + 1) % net.size();
  }
  EXPECT_EQ(routed(net, bitrev), bitrev);
  EXPECT_EQ(routed(net, ident), ident);
  EXPECT_EQ(routed(net, shift), shift);
}

TEST(Benes, ApplyIsAlwaysAPermutation) {
  // Arbitrary (even nonsensical) settings still produce a permutation —
  // pairwise swaps cannot collide.
  util::Rng rng(7);
  const BenesNetwork net(4);
  BenesNetwork::Settings settings(net.stage_count(),
                                  std::vector<bool>(net.size(), false));
  for (auto& stage : settings)
    for (std::size_t i = 0; i < stage.size(); ++i) stage[i] = rng.chance(0.5);
  const auto out = net.apply(settings);
  std::vector<bool> seen(net.size(), false);
  for (u32 v : out) {
    ASSERT_LT(v, net.size());
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Benes, RejectsBadInput) {
  const BenesNetwork net(3);
  EXPECT_THROW((void)net.route_permutation({0, 1}), Error);
  EXPECT_THROW((void)net.route_permutation({0, 0, 2, 3, 4, 5, 6, 7}), Error);
  BenesNetwork::Settings wrong(2);
  EXPECT_THROW((void)net.apply(wrong), Error);
}

}  // namespace
}  // namespace confnet::min
