// Multiplicity of routing conflicts — the paper's key quantity: "the
// maximum number of conflict parties competing a single interstage link
// when multiple disjoint conferences simultaneously present in the
// network".
//
// Four independent ways to obtain it (agreement between them is the
// machine verification of DESIGN.md results R1-R3):
//   * measure:     count link sharing for a concrete ConferenceSet;
//   * theory:      closed forms min(2^l, 2^(n-l)) (arbitrary placement, all
//                  topologies) and the aligned-placement forms (1 for
//                  the orthogonal-window kinds; 2^(min(l,n-l)-1) for
//                  baseline and flip);
//   * adversary:   explicit ConferenceSets achieving the bounds;
//   * exhaustive:  brute force over every disjoint conference set (small N)
//                  and every aligned buddy configuration (N <= 16).
//
// A fifth, dynamic check comes from the observability layer: every
// stateless Fabric::evaluate records per-level link-load histograms
// ("fabric/link_load{level=k}" in the obs::Registry). Only oracle checks
// evaluate — verify_delivery_reference and the Monte-Carlo reference
// (Cluster::cross_check's flattened oracle holds its own load table to R1
// and publishes nothing) — so a run's histograms can be compared against
// the closed forms here only for the states those oracles re-checked;
// live FabricState traffic feeds no fabric metric (see ARCHITECTURE.md §3
// and the metrics-snapshot notes in EXPERIMENTS.md).
#pragma once

#include <vector>

#include "conference/conference.hpp"
#include "conference/placement.hpp"
#include "min/types.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace confnet::util {
class ThreadPool;
}

namespace confnet::conf {

/// Per-level maximum link sharing for one concrete conference set.
struct MultiplicityProfile {
  std::vector<u32> per_level;  // indexed by level 0..n
  u32 peak = 0;                // max over interstage levels 1..n-1
};

/// Reusable workspace for the allocation-free measurement kernel. One
/// instance per thread; `measure_multiplicity` sizes it on demand and
/// leaves it ready for the next call (counts all zero, stamps current).
struct MultiplicityScratch {
  std::vector<u32> counts;     // [N] link-use counters, zeroed via `touched`
  std::vector<u32> touched;    // rows with nonzero count at this level
  std::vector<u32> src_parts;  // deduplicated source fields of one set
  std::vector<u32> dst_parts;  // deduplicated destination fields
  std::vector<u32> stamp;      // [N] generation marks for O(1) dedup
  u32 generation = 0;

  /// Resize for a 2^n-port network; resets stamps on size change or
  /// (theoretical) generation wraparound.
  void prepare(u32 ports);
};

/// Measure the sharing profile of `set` under ALL_PAIRS realization.
/// Allocation-free after warmup: uses a thread-local MultiplicityScratch
/// and counts rows directly from the per-level bit-field decomposition
/// (min::row_parts) instead of materializing row vectors.
[[nodiscard]] MultiplicityProfile measure_multiplicity(
    min::Kind kind, u32 n, const ConferenceSet& set);

/// Same, with an explicit caller-owned workspace (hot loops, worker
/// threads).
[[nodiscard]] MultiplicityProfile measure_multiplicity(
    min::Kind kind, u32 n, const ConferenceSet& set,
    MultiplicityScratch& scratch);

/// Reference oracle: counts every conference's `all_pairs_links` rows into
/// one level-major table, independent of the fast kernel's stamped
/// scratch, so property tests can assert the kernel is bit-identical.
[[nodiscard]] MultiplicityProfile measure_multiplicity_reference(
    min::Kind kind, u32 n, const ConferenceSet& set);

/// Closed form for the network-wide peak under arbitrary placement:
/// 2^floor(n/2) (attained at the middle level).
[[nodiscard]] u32 theoretical_peak(u32 n);

/// Closed form under aligned-block (buddy) placement:
/// 1 for the orthogonal-window kinds; 2^(min(level,n-level)-1) for
/// baseline/flip at interstage levels (levels 0 and n are always 1).
[[nodiscard]] u32 theoretical_aligned_max(min::Kind kind, u32 n, u32 level);

/// Build a set of min::r1_bound(n, level) disjoint two-member conferences
/// that all use link (level,row) — the constructive lower bound for R1.
/// Throws if the theoretical construction cannot be packed (never happens
/// for n >= 2 at interstage levels).
[[nodiscard]] ConferenceSet adversarial_conference_set(min::Kind kind, u32 n,
                                                       u32 level, u32 row);

/// Build an aligned-placement conference set achieving
/// theoretical_aligned_max for baseline/flip at the given level (pairs on
/// aligned two-port blocks sharing one link).
[[nodiscard]] ConferenceSet aligned_adversarial_set(min::Kind kind, u32 n,
                                                    u32 level);

/// Exhaustive maximum over every set of disjoint conferences (every set
/// partition of [0,N) with parts of size >= 2 plus idle ports). Feasible
/// for n <= 3 (Bell(8) = 4140 partitions).
[[nodiscard]] MultiplicityProfile exhaustive_max_multiplicity(min::Kind kind,
                                                              u32 n);

/// Exhaustive maximum over every aligned buddy configuration (each block of
/// size >= 2 fully occupied by one conference). Feasible for n <= 4.
[[nodiscard]] MultiplicityProfile exhaustive_aligned_max(min::Kind kind,
                                                         u32 n);

/// Exact maximum number of disjoint conferences through one fixed link,
/// computed by optimizing over the link's window element classes
/// (In-only / Out-only / both / outside). Independent of the closed form;
/// tests assert it equals min::r1_bound for every link.
[[nodiscard]] u32 exhaustive_link_packing(min::Kind kind, u32 n, u32 level,
                                          u32 row);

/// Monte-Carlo: draw `trials` random disjoint conference sets (sizes
/// uniform in [min_size,max_size], `conference_count` conferences placed by
/// `policy`) and record the peak multiplicity distribution.
struct MonteCarloResult {
  util::RunningStats peak;        // per-trial peak multiplicity
  std::vector<u32> peak_histogram;  // index = peak value
  u32 max_peak = 0;
  u32 placement_failures = 0;  // trials where placement could not fit
  /// Trials whose realized set failed functional delivery verification
  /// (only counted when verify_delivery is requested; 0 expected — every
  /// ALL_PAIRS realization on a healthy fabric delivers the full set).
  u32 delivery_failures = 0;
};
/// Trials place on the fast placer (FastPortPlacer) and fan out over
/// `pool` (util::global_pool() when null). Every trial stream is forked
/// from the root RNG in serial order before any work is scheduled and
/// results merge in trial order, so the outcome is byte-identical to the
/// serial reference for any worker count.
/// With `verify_delivery`, every trial's conference set is additionally
/// realized (ALL_PAIRS) in a per-worker FabricState and checked by its
/// closed-form delivery_ok (exact iff no dead link); verification consumes
/// no randomness, so the multiplicity statistics are unchanged.
[[nodiscard]] MonteCarloResult monte_carlo_multiplicity(
    min::Kind kind, u32 n, u32 conference_count, u32 min_size, u32 max_size,
    PlacementPolicy policy, u32 trials, u64 seed,
    util::ThreadPool* pool = nullptr, bool verify_delivery = false);

/// Reference oracle: the original single-threaded loop on top of
/// measure_multiplicity_reference and the reference PortPlacer. Its
/// `verify_delivery` propagates signals through the stateless set-based
/// `Fabric::evaluate` instead.
[[nodiscard]] MonteCarloResult monte_carlo_multiplicity_reference(
    min::Kind kind, u32 n, u32 conference_count, u32 min_size, u32 max_size,
    PlacementPolicy policy, u32 trials, u64 seed,
    bool verify_delivery = false);

}  // namespace confnet::conf
