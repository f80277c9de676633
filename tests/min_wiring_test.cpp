// Interstage wiring: the explicit `Permutation` algebra, the named wiring
// patterns of the class built as explicit permutations, and the closed-form
// `FieldRotation` stage descriptors every topology uses, pinned entry by
// entry against those explicit permutations.
#include "min/wiring.hpp"

#include <gtest/gtest.h>

#include "min/network.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace confnet::min {
namespace {

// --- Named wiring patterns on N = 2^n_bits ports, built as explicit
// permutations independently of FieldRotation (the oracle). ---

/// Rotate the low `n` bits of `x` left by one (perfect shuffle of 2^n
/// ports). A zero-width field rotates to itself (0); the guard also keeps
/// the shift by n-1 defined for n == 0.
constexpr u64 rotl_n(u64 x, u32 n) noexcept {
  if (n <= 1) return n == 0 ? 0 : x & 1;
  const u64 m = (n >= 64) ? ~u64{0} : ((u64{1} << n) - 1);
  x &= m;
  return ((x << 1) | (x >> (n - 1))) & m;
}

/// Rotate the low `n` bits of `x` right by one (inverse shuffle).
constexpr u64 rotr_n(u64 x, u32 n) noexcept {
  if (n <= 1) return n == 0 ? 0 : x & 1;
  const u64 m = (n >= 64) ? ~u64{0} : ((u64{1} << n) - 1);
  x &= m;
  return ((x >> 1) | ((x & 1) << (n - 1))) & m;
}

template <class Fn>
Permutation from_fn(u32 n_bits, Fn fn) {
  expects(n_bits >= 1 && n_bits < 31, "wiring needs 1 <= n_bits < 31");
  std::vector<u32> m(u32{1} << n_bits);
  for (u32 p = 0; p < m.size(); ++p) m[p] = fn(p);
  return Permutation(std::move(m));
}

/// Perfect shuffle: rotate the n-bit address left by one.
Permutation shuffle(u32 n_bits) {
  return from_fn(n_bits, [&](u32 p) {
    return static_cast<u32>(rotl_n(p, n_bits));
  });
}

/// Inverse perfect shuffle: rotate right by one.
Permutation unshuffle(u32 n_bits) {
  return from_fn(n_bits, [&](u32 p) {
    return static_cast<u32>(rotr_n(p, n_bits));
  });
}

/// Perfect shuffle applied independently inside aligned blocks of
/// 2^block_bits ports (rotate the low block_bits left by one).
Permutation block_shuffle(u32 n_bits, u32 block_bits) {
  expects(block_bits >= 1 && block_bits <= n_bits,
          "block_shuffle needs 1 <= block_bits <= n_bits");
  const u32 mask = (u32{1} << block_bits) - 1;
  return from_fn(n_bits, [&](u32 p) {
    return (p & ~mask) | static_cast<u32>(rotl_n(p & mask, block_bits));
  });
}

/// Inverse shuffle inside aligned blocks of 2^block_bits ports (the
/// baseline network's interstage wiring).
Permutation block_unshuffle(u32 n_bits, u32 block_bits) {
  expects(block_bits >= 1 && block_bits <= n_bits,
          "block_unshuffle needs 1 <= block_bits <= n_bits");
  const u32 mask = (u32{1} << block_bits) - 1;
  return from_fn(n_bits, [&](u32 p) {
    return (p & ~mask) | static_cast<u32>(rotr_n(p & mask, block_bits));
  });
}

/// Moves bit `k` of the address to the LSB, shifting bits 0..k-1 up by one;
/// rows u and u^(1<<k) become switch-adjacent (2w, 2w+1). This is the
/// indirect-binary-cube stage-input wiring.
Permutation bit_to_lsb(u32 n_bits, u32 k) {
  expects(k < n_bits, "bit_to_lsb needs k < n_bits");
  const u32 low_mask = (u32{1} << k) - 1;
  return from_fn(n_bits, [&](u32 p) {
    const u32 w = ((p >> (k + 1)) << k) | (p & low_mask);
    return (w << 1) | util::bit(p, k);
  });
}

/// Inverse of bit_to_lsb: re-inserts the LSB at bit position `k`.
Permutation lsb_to_bit(u32 n_bits, u32 k) {
  return bit_to_lsb(n_bits, k).inverse();
}

/// Stage k of each named topology as (in, out) explicit permutations.
std::pair<Permutation, Permutation> oracle_stage(Kind kind, u32 n, u32 k) {
  const Permutation id = Permutation::identity(u32{1} << n);
  switch (kind) {
    case Kind::kOmega:
      return {shuffle(n), id};
    case Kind::kBaseline:
      return {id, block_unshuffle(n, n - k)};
    case Kind::kIndirectCube:
      return {bit_to_lsb(n, k), lsb_to_bit(n, k)};
    case Kind::kButterfly:
      return {bit_to_lsb(n, n - 1 - k), lsb_to_bit(n, n - 1 - k)};
    case Kind::kFlip:
      return {block_shuffle(n, k + 1), id};
    case Kind::kReverseOmega:
      return {id, unshuffle(n)};
  }
  throw Error("unknown kind");
}

/// First row where the rotation and the permutation disagree, or N.
u32 first_mismatch(FieldRotation rot, const Permutation& perm) {
  for (u32 p = 0; p < perm.size(); ++p)
    if (rot(p) != perm(p)) return p;
  return perm.size();
}

TEST(Permutation, RejectsNonBijection) {
  EXPECT_THROW(Permutation({0, 0}), Error);
  EXPECT_THROW(Permutation({0, 2}), Error);
  EXPECT_NO_THROW(Permutation({1, 0}));
}

TEST(Permutation, IdentityAndInverse) {
  const Permutation id = Permutation::identity(8);
  EXPECT_TRUE(id.is_identity());
  const Permutation p({2, 0, 1, 3});
  EXPECT_FALSE(p.is_identity());
  const Permutation inv = p.inverse();
  for (u32 i = 0; i < 4; ++i) EXPECT_EQ(inv(p(i)), i);
  EXPECT_TRUE(p.then(inv).is_identity());
  EXPECT_TRUE(inv.then(p).is_identity());
}

TEST(Permutation, Composition) {
  const Permutation p({1, 2, 3, 0});
  const Permutation q({3, 2, 1, 0});
  const Permutation pq = p.then(q);
  for (u32 i = 0; i < 4; ++i) EXPECT_EQ(pq(i), q(p(i)));
}

TEST(Wiring, ShuffleIsLeftRotation) {
  // The oracle's rotations, by hand: 0b1001 <-> 0b0011 over 4 bits.
  static_assert(rotl_n(0b1001, 4) == 0b0011u);
  static_assert(rotr_n(0b0011, 4) == 0b1001u);
  const u32 n = 3;
  const Permutation s = shuffle(n);
  for (u32 p = 0; p < 8; ++p)
    EXPECT_EQ(s(p), static_cast<u32>(rotl_n(p, n)));
}

TEST(Wiring, UnshuffleInvertsShuffle) {
  for (u32 n = 1; n <= 6; ++n)
    EXPECT_TRUE(shuffle(n).then(unshuffle(n)).is_identity());
}

TEST(Wiring, BlockShuffleStaysInBlock) {
  const u32 n = 4, bb = 2;
  const Permutation p = block_shuffle(n, bb);
  for (u32 x = 0; x < 16; ++x) EXPECT_EQ(p(x) >> bb, x >> bb);
  EXPECT_TRUE(block_shuffle(n, bb).then(block_unshuffle(n, bb)).is_identity());
}

TEST(Wiring, BlockShuffleFullBlockEqualsShuffle) {
  const u32 n = 4;
  EXPECT_EQ(block_shuffle(n, n), shuffle(n));
  EXPECT_EQ(block_unshuffle(n, n), unshuffle(n));
}

TEST(Wiring, BitToLsbPairsCubeNeighbours) {
  const u32 n = 4;
  for (u32 k = 0; k < n; ++k) {
    const Permutation p = bit_to_lsb(n, k);
    for (u32 u = 0; u < 16; ++u) {
      const u32 v = u ^ (1u << k);
      // Same switch: indices differ only in the LSB.
      EXPECT_EQ(p(u) >> 1, p(v) >> 1);
      EXPECT_NE(p(u) & 1u, p(v) & 1u);
      EXPECT_EQ(p(u) & 1u, (u >> k) & 1u);
    }
  }
}

TEST(Wiring, BitToLsbK0IsIdentity) {
  EXPECT_TRUE(bit_to_lsb(4, 0).is_identity());
}

TEST(Wiring, LsbToBitInverts) {
  for (u32 n = 1; n <= 6; ++n)
    for (u32 k = 0; k < n; ++k)
      EXPECT_TRUE(bit_to_lsb(n, k).then(lsb_to_bit(n, k)).is_identity());
}

TEST(Wiring, BitReversalInvolution) {
  for (u32 n = 1; n <= 6; ++n) {
    const Permutation r = bit_reversal(n);
    EXPECT_TRUE(r.then(r).is_identity());
  }
}

TEST(Wiring, BadArgsThrow) {
  EXPECT_THROW(block_shuffle(4, 0), Error);
  EXPECT_THROW(block_shuffle(4, 5), Error);
  EXPECT_THROW(bit_to_lsb(4, 4), Error);
}

TEST(FieldRotation, RotatesTheLowFieldByOne) {
  static_assert(FieldRotation(3, true)(0b0110'011u) == 0b0110'110u);
  static_assert(FieldRotation(3, false)(0b0110'011u) == 0b0110'101u);
  static_assert(FieldRotation()(0xABCDu) == 0xABCDu);
  static_assert(FieldRotation(1, true)(0xABCDu) == 0xABCDu);
  for (u32 bits = 0; bits <= 20; ++bits) {
    EXPECT_EQ(FieldRotation(bits, true).bits(), bits);
    EXPECT_EQ(FieldRotation(bits, true).inverse(), FieldRotation(bits, false));
  }
  EXPECT_THROW(FieldRotation(32, true), Error);
}

TEST(StageWiring, MatchesExplicitPermutationsForEveryKind) {
  for (Kind kind : kAllKinds) {
    for (u32 n = 1; n <= 12; ++n) {
      const Network net(kind, n);
      for (u32 k = 0; k < n; ++k) {
        const StageSpec st = net.stage(k);
        const auto [in, out] = oracle_stage(kind, n, k);
        const u32 N = u32{1} << n;
        EXPECT_EQ(first_mismatch(st.in_perm, in), N)
            << kind_name(kind) << " n=" << n << " stage " << k << " in";
        EXPECT_EQ(first_mismatch(st.out_perm, out), N)
            << kind_name(kind) << " n=" << n << " stage " << k << " out";
        EXPECT_EQ(first_mismatch(st.in_perm.inverse(), in.inverse()), N)
            << kind_name(kind) << " n=" << n << " stage " << k << " in^-1";
        EXPECT_EQ(first_mismatch(st.out_perm.inverse(), out.inverse()), N)
            << kind_name(kind) << " n=" << n << " stage " << k << " out^-1";
      }
    }
  }
}

TEST(StageWiring, SuccessorsAndPredecessorsAgreeAtEveryLink) {
  for (Kind kind : kAllKinds) {
    for (u32 n = 1; n <= 10; ++n) {
      const Network net(kind, n);
      u64 mismatches = 0;
      for (u32 level = 0; level < n; ++level) {
        for (u32 row = 0; row < net.size(); ++row) {
          for (u32 next : net.successors(level, row)) {
            const auto preds = net.predecessors(level + 1, next);
            mismatches += preds[0] != row && preds[1] != row;
          }
          for (u32 prev : net.predecessors(level + 1, row)) {
            const auto succs = net.successors(level, prev);
            mismatches += succs[0] != row && succs[1] != row;
          }
        }
      }
      EXPECT_EQ(mismatches, 0u) << kind_name(kind) << " n=" << n;
    }
  }
}

TEST(StageWiring, EveryStageFitsTheAddress) {
  for (Kind kind : kAllKinds) {
    for (u32 n = 1; n <= 20; ++n) {
      for (u32 k = 0; k < n; ++k) {
        const StageSpec st = make_stage(kind, n, k);
        EXPECT_LE(st.in_perm.bits(), n) << kind_name(kind) << " n=" << n;
        EXPECT_LE(st.out_perm.bits(), n) << kind_name(kind) << " n=" << n;
        EXPECT_LT(st.routing_bit, n) << kind_name(kind) << " n=" << n;
      }
    }
  }
  EXPECT_THROW((void)make_stage(Kind::kOmega, 2, 2), Error);
}

}  // namespace
}  // namespace confnet::min
