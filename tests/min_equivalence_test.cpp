// Topological equivalence of the class: the constructed isomorphisms must
// map path structure exactly for every ordered pair of topologies, compose
// consistently, and respect the expected port relabelings.
#include "analysis/min/equivalence.hpp"

#include <gtest/gtest.h>

#include "min/selfroute.hpp"
#include "util/error.hpp"

namespace confnet::min {
namespace {

TEST(Equivalence, EveryOrderedPairIsIsomorphic) {
  for (u32 n : {1u, 2u, 3u, 4u, 5u}) {
    for (Kind a : kAllKinds) {
      for (Kind b : kAllKinds) {
        const LevelwiseIsomorphism iso = class_isomorphism(a, b, n);
        EXPECT_TRUE(verify_isomorphism(a, b, n, iso))
            << kind_name(a) << " -> " << kind_name(b) << " n=" << n;
      }
    }
  }
}

TEST(Equivalence, SelfIsomorphismIsIdentity) {
  const u32 n = 4;
  for (Kind kind : kAllKinds) {
    const LevelwiseIsomorphism iso = class_isomorphism(kind, kind, n);
    EXPECT_TRUE(iso.input_perm.is_identity());
    EXPECT_TRUE(iso.output_perm.is_identity());
    for (const Permutation& p : iso.level_maps)
      EXPECT_TRUE(p.is_identity());
  }
}

TEST(Equivalence, ExternalLevelsMatchPortRelabelings) {
  // Level 0 must be relabeled exactly by input_perm and level n by
  // output_perm (paths start at s and end at d).
  const u32 n = 4;
  for (Kind a : kAllKinds) {
    for (Kind b : kAllKinds) {
      const LevelwiseIsomorphism iso = class_isomorphism(a, b, n);
      for (u32 p = 0; p < (u32{1} << n); ++p) {
        EXPECT_EQ(iso.level_maps[0](p), iso.input_perm(p));
        EXPECT_EQ(iso.level_maps[n](p), iso.output_perm(p));
      }
    }
  }
}

TEST(Equivalence, ComposesTransitively) {
  // a->b composed with b->c equals a->c on every path row.
  const u32 n = 3;
  const Kind a = Kind::kOmega, b = Kind::kBaseline, c = Kind::kIndirectCube;
  const auto ab = class_isomorphism(a, b, n);
  const auto bc = class_isomorphism(b, c, n);
  const auto ac = class_isomorphism(a, c, n);
  for (u32 s = 0; s < 8; ++s)
    for (u32 d = 0; d < 8; ++d)
      for (u32 l = 0; l <= n; ++l) {
        const u32 via =
            bc.level_maps[l](ab.level_maps[l](path_row(a, n, s, d, l)));
        const u32 direct = ac.level_maps[l](path_row(a, n, s, d, l));
        EXPECT_EQ(via, direct);
      }
}

TEST(Equivalence, OmegaButterflyNeedNoPortRelabeling) {
  // The rotation-only pair: identical external port numbering.
  const u32 n = 5;
  const auto iso = class_isomorphism(Kind::kOmega, Kind::kButterfly, n);
  EXPECT_TRUE(iso.input_perm.is_identity());
  EXPECT_TRUE(iso.output_perm.is_identity());
}

TEST(Equivalence, BaselineButterflyUsesInputBitReversal) {
  const u32 n = 4;
  const auto iso = class_isomorphism(Kind::kBaseline, Kind::kButterfly, n);
  EXPECT_EQ(iso.input_perm, bit_reversal(n));
  EXPECT_TRUE(iso.output_perm.is_identity());
}

TEST(Equivalence, RejectsWrongIsomorphism) {
  const u32 n = 3;
  LevelwiseIsomorphism iso = class_isomorphism(Kind::kOmega, Kind::kBaseline, n);
  // Tamper with one level map: swap two rows.
  std::vector<u32> m(8);
  for (u32 i = 0; i < 8; ++i) m[i] = iso.level_maps[1](i);
  std::swap(m[0], m[5]);
  iso.level_maps[1] = Permutation(std::move(m));
  EXPECT_FALSE(verify_isomorphism(Kind::kOmega, Kind::kBaseline, n, iso));
}

TEST(Equivalence, ValidatesShape) {
  const u32 n = 3;
  LevelwiseIsomorphism iso = class_isomorphism(Kind::kOmega, Kind::kOmega, n);
  iso.level_maps.pop_back();
  EXPECT_THROW((void)verify_isomorphism(Kind::kOmega, Kind::kOmega, n, iso),
               Error);
}

}  // namespace
}  // namespace confnet::min
