// Interstage wiring.
//
// Every network in the studied class is "switches + bit-permutation wiring",
// and every wiring the class uses (perfect shuffle, block inverse shuffle,
// cube bit-extraction) rotates a low field of the row address by one bit.
// `FieldRotation` is that closed form: `network.cpp` assembles the networks
// from it, and a hop through a stage costs a few ALU operations with no
// table. `Permutation` is the explicit form used by the isomorphism
// machinery (`analysis/min/equivalence.cpp`) and by the wiring tests,
// which pin every `FieldRotation` against an explicitly built permutation.
#pragma once

#include <bit>
#include <vector>

#include "min/types.hpp"
#include "util/error.hpp"

namespace confnet::min {

/// Rotation by one position of the low `bits` bits of a row address; the
/// high bits stay in place. Widths 0 and 1 are the identity. The mask and
/// both shift counts are fixed at construction, so applying the rotation
/// (and its inverse, which swaps the shifts) is branch-free.
class FieldRotation {
 public:
  /// The identity wiring.
  constexpr FieldRotation() noexcept = default;

  /// Rotate the low `bits` bits left (`left`) or right by one.
  constexpr FieldRotation(u32 bits, bool left)
      : mask_(field_mask(bits)),
        shl_(left ? 1 : shr_for(bits)),
        shr_(left ? shr_for(bits) : 1) {}

  [[nodiscard]] constexpr u32 operator()(u32 row) const noexcept {
    const u32 low = row & mask_;
    return (row & ~mask_) | (((low << shl_) | (low >> shr_)) & mask_);
  }

  [[nodiscard]] constexpr FieldRotation inverse() const noexcept {
    FieldRotation inv;
    inv.mask_ = mask_;
    inv.shl_ = shr_;
    inv.shr_ = shl_;
    return inv;
  }

  /// Width of the rotated field.
  [[nodiscard]] constexpr u32 bits() const noexcept {
    return static_cast<u32>(std::popcount(mask_));
  }

  friend constexpr bool operator==(FieldRotation, FieldRotation) = default;

 private:
  static constexpr u32 field_mask(u32 bits) {
    expects(bits < 32, "FieldRotation needs bits < 32");
    return (u32{1} << bits) - 1;
  }
  // A one-bit rotation of a b-bit field moves the far end by b-1; a
  // zero-width field has nothing to move.
  static constexpr u32 shr_for(u32 bits) noexcept {
    return bits == 0 ? 0 : bits - 1;
  }

  u32 mask_ = 0;
  u32 shl_ = 0;
  u32 shr_ = 0;
};

/// An explicit permutation of [0, size). Immutable after construction.
class Permutation {
 public:
  /// Wraps a mapping; throws unless `map` is a bijection on its index range.
  explicit Permutation(std::vector<u32> map);

  [[nodiscard]] static Permutation identity(u32 size);

  [[nodiscard]] u32 size() const noexcept {
    return static_cast<u32>(map_.size());
  }

  [[nodiscard]] u32 operator()(u32 i) const;

  [[nodiscard]] Permutation inverse() const;

  /// Composition: (this->then(g))(x) == g(this(x)).
  [[nodiscard]] Permutation then(const Permutation& g) const;

  [[nodiscard]] bool is_identity() const noexcept;

  friend bool operator==(const Permutation& a, const Permutation& b) {
    return a.map_ == b.map_;
  }

 private:
  std::vector<u32> map_;
};

/// Bit-reversal permutation on N = 2^n_bits ports (classic worst case for
/// unicast omega routing).
[[nodiscard]] Permutation bit_reversal(u32 n_bits);

}  // namespace confnet::min
