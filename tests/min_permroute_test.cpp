// Unicast permutation routing sanity: classic known facts about the class
// (identity permutations route conflict-free; bit reversal congests omega
// with exactly sqrt(N) load at the middle) plus structural invariants.
#include "analysis/min/permroute.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "min/wiring.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace confnet::min {
namespace {

std::vector<u32> identity_perm(u32 N) {
  std::vector<u32> p(N);
  std::iota(p.begin(), p.end(), 0u);
  return p;
}

TEST(PermRoute, IdentityAdmissibilitySplitsTheClass) {
  // Identity routes conflict-free exactly in the orthogonal-window
  // topologies. In baseline/flip the level-k row depends only on the top
  // max(k, n-k) source bits, so identity already piles 2^min(k,n-k)
  // signals on one link — the same block x block structure behind R2.
  for (u32 n : {2u, 3u, 4u, 5u, 6u}) {
    for (Kind kind : {Kind::kOmega, Kind::kIndirectCube, Kind::kButterfly,
                      Kind::kReverseOmega}) {
      const Network net(kind, n);
      EXPECT_TRUE(is_admissible(net, identity_perm(net.size())))
          << kind_name(kind) << " n=" << n;
    }
    for (Kind kind : {Kind::kBaseline, Kind::kFlip}) {
      const Network net(kind, n);
      const LoadProfile lp = permutation_load(net, identity_perm(net.size()));
      EXPECT_EQ(lp.peak, u32{1} << (n / 2)) << kind_name(kind) << " n=" << n;
    }
  }
}

TEST(PermRoute, ExternalLevelsAlwaysLoadOne) {
  util::Rng rng(4);
  for (Kind kind : kAllKinds) {
    const Network net(kind, 5);
    auto perm = identity_perm(net.size());
    rng.shuffle(std::span<u32>(perm));
    const LoadProfile lp = permutation_load(net, perm);
    EXPECT_EQ(lp.max_load.front(), 1u);
    EXPECT_EQ(lp.max_load.back(), 1u);
  }
}

TEST(PermRoute, BitReversalCongestsOmega) {
  // Classic result: routing the bit-reversal permutation through an omega
  // network creates 2^floor(n/2) conflicts on some middle link.
  for (u32 n : {4u, 6u, 8u}) {
    const Network net(Kind::kOmega, n);
    std::vector<u32> perm(net.size());
    for (u32 s = 0; s < net.size(); ++s)
      perm[s] = static_cast<u32>(util::reverse_bits_n(s, n));
    const LoadProfile lp = permutation_load(net, perm);
    EXPECT_EQ(lp.peak, u32{1} << (n / 2)) << "n=" << n;
  }
}

TEST(PermRoute, ComplementAdmissibleInOmega) {
  // d = ~s is admissible through omega: the level-k link row carries s's
  // low n-k bits and the complement of s's top k bits, so the source is
  // recoverable from the row — no two sources can share a link.
  const u32 n = 5;
  const Network net(Kind::kOmega, n);
  std::vector<u32> perm(net.size());
  for (u32 s = 0; s < net.size(); ++s) perm[s] = (net.size() - 1) ^ s;
  EXPECT_TRUE(is_admissible(net, perm));
}

TEST(PermRoute, LoadIsBoundedByTheoreticalWindowLimit) {
  // No permutation can load a level-l link beyond min(2^l, 2^(n-l)).
  util::Rng rng(9);
  for (Kind kind : kAllKinds) {
    const u32 n = 6;
    const Network net(kind, n);
    for (int trial = 0; trial < 20; ++trial) {
      auto perm = identity_perm(net.size());
      rng.shuffle(std::span<u32>(perm));
      const LoadProfile lp = permutation_load(net, perm);
      for (u32 level = 0; level <= n; ++level)
        EXPECT_LE(lp.max_load[level],
                  std::min(u32{1} << level, u32{1} << (n - level)));
    }
  }
}

TEST(PermRoute, TotalSignalsConserved) {
  // Sanity: every level carries exactly N signals in total; the max load of
  // any level is at least 1.
  util::Rng rng(10);
  const Network net(Kind::kBaseline, 5);
  auto perm = identity_perm(net.size());
  rng.shuffle(std::span<u32>(perm));
  const LoadProfile lp = permutation_load(net, perm);
  for (u32 level = 0; level <= 5u; ++level) EXPECT_GE(lp.max_load[level], 1u);
}

TEST(PermRoute, RejectsNonPermutations) {
  const Network net(Kind::kOmega, 3);
  std::vector<u32> dup(net.size(), 0);
  EXPECT_THROW((void)permutation_load(net, dup), Error);
  std::vector<u32> wrong_size{0, 1};
  EXPECT_THROW((void)permutation_load(net, wrong_size), Error);
}

}  // namespace
}  // namespace confnet::min
