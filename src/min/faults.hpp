// Link-fault modeling for the class.
//
// Banyan networks have a unique path per (input, output) pair, so a single
// faulty interstage link disconnects a whole In x Out window of pairs —
// and kills every conference whose subnetwork touches it. This module
// quantifies that fragility (a known weakness the paper's line of work
// inherits) and provides the fault set abstraction used by the
// fault-tolerance experiment (E10) and by fault-aware admission.
#pragma once

#include <vector>

#include "min/types.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace confnet::min {

/// A set of failed links (levels 0..n; external levels allowed — a failed
/// level-0/n link models a dead port interface).
class FaultSet {
 public:
  explicit FaultSet(u32 n);

  [[nodiscard]] u32 n() const noexcept { return n_; }
  [[nodiscard]] u32 size() const noexcept { return u32{1} << n_; }

  /// Both mutations are idempotent: failing an already-faulty link (or
  /// repairing a healthy one) changes nothing, so `fault_count()` can never
  /// drift from the bitset population under any fail/repair/inject
  /// interleaving (pinned by `count_consistent()` and the audit hooks).
  void fail_link(u32 level, u32 row);
  void repair_link(u32 level, u32 row);
  [[nodiscard]] bool is_faulty(u32 level, u32 row) const;
  [[nodiscard]] u64 fault_count() const noexcept { return count_; }

  /// Repair every link (fault_count() back to 0).
  void clear();

  /// `fault_count()` equals a full recount of the fault bitset. Used
  /// by the fabric-state audit to catch any future counter drift.
  [[nodiscard]] bool count_consistent() const noexcept;

  /// Fail every interstage link independently with probability p.
  /// Re-drawing an already-faulty link is counted once (see fail_link).
  void inject_random(double p, util::Rng& rng);

  /// Fail a whole stage-`stage` switch (its two output links).
  void fail_switch_outputs(Kind kind, u32 stage, u32 switch_index);

 private:
  /// Bit of link (level, row) in `faulty_`: level-major, 2^n rows a level.
  [[nodiscard]] std::size_t bit(u32 level, u32 row) const noexcept {
    return (std::size_t{level} << n_) | row;
  }

  u32 n_;
  u64 count_ = 0;
  util::DynBitset faulty_;  // (n+1)·2^n bits, indexed by bit(level, row)
};

/// True iff the unique (src,dst) path avoids every faulty link.
[[nodiscard]] bool path_survives(Kind kind, u32 n, u32 src, u32 dst,
                                 const FaultSet& faults);

/// Fraction of the N^2 (src,dst) pairs still connected.
[[nodiscard]] double connectivity(Kind kind, u32 n, const FaultSet& faults);

/// True iff a conference on `members` (ALL_PAIRS realization) avoids every
/// faulty link — equivalently all member pairs survive.
[[nodiscard]] bool conference_survives(Kind kind, u32 n,
                                       const std::vector<u32>& members,
                                       const FaultSet& faults);

}  // namespace confnet::min
