// Cluster teletraffic experiment: Poisson conference arrivals onto a
// multi-fabric cluster, with a tunable fraction of arrivals spanning
// shards (served through the single-round optimistic trunk claim),
// regional port skew across shards, and independent MTTF/MTTR fault
// processes for trunks and for interstage links inside shards. Results
// separate the three loss causes the cluster distinguishes — shard-local
// blocking, trunk exhaustion, fault interruption — plus time-weighted
// occupancy and trunk utilization, and can periodically deep-verify
// delivery against the flattened single-fabric oracle
// (Cluster::cross_check). Fault victims are either re-offered immediately
// or parked in a per-fault retry queue until the matching repair fires
// (`retry_on_repair`); either way interrupted == reopened + lost holds.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "sim/traffic.hpp"

namespace confnet::sim {

struct ClusterTrafficConfig {
  TrafficModel traffic;  // conference arrival/holding/size model
  /// Probability an arrival spans shards (when the cluster has > 1).
  double span_fraction = 0.25;
  /// A spanning conference touches 2..max_span_shards shards (clamped to
  /// the cluster's shard count).
  u32 max_span_shards = 3;
  /// Regional port skew: relative arrival weight per shard (empty =
  /// uniform). Spanning conferences draw their touched set by the same
  /// weights, without replacement.
  std::vector<double> shard_weights;
  double duration = 1000.0;
  double warmup = 100.0;
  std::uint64_t seed = 1;
  /// Trunk fault process: shard-pair trunks fail at `trunk_fault_rate`
  /// events per unit time cluster-wide (a healthy pair is sampled per
  /// event) and each is repaired after an exponential delay with rate
  /// `trunk_repair_rate`. 0 disables the process entirely.
  double trunk_fault_rate = 0.0;
  double trunk_repair_rate = 1.0;
  /// Interstage-link fault process inside shards, same convention: events
  /// cluster-wide at `link_fault_rate`, each picking a shard by weight and
  /// a healthy interstage link uniformly. 0 disables; > 0 needs
  /// `stages >= 2` (a one-stage shard has no interstage link).
  double link_fault_rate = 0.0;
  double link_repair_rate = 1.0;
  /// A fault-interrupted conference is re-offered once with the same leg
  /// layout (reopened vs lost accounting below): immediately by default.
  /// With this set, it instead waits in a retry queue keyed by the fault
  /// that tore it down and is re-offered when the matching repair_trunk /
  /// repair_link fires. A victim whose holding time expires while queued
  /// — or whose fault is never repaired before the run ends — counts as
  /// lost, so interrupted == reopened + lost is preserved.
  bool retry_on_repair = false;
  /// Periodically run Cluster::cross_check (flattened-oracle delivery +
  /// conservation audit). A violation stops the run with functional_ok
  /// false.
  bool verify_functional = false;
  double verify_interval = 250.0;
};

struct ClusterTrafficResult {
  cluster::ClusterStats stats;  // final whole-run cluster counters
  /// Post-warmup loss fractions by cause (0 when nothing was offered).
  double intra_blocking = 0.0;       // blocked intra / intra opens
  double span_blocking = 0.0;        // blocked spans (both causes) / span opens
  double span_trunk_blocking = 0.0;  // trunk-blocked spans / span opens
  /// Time-weighted post-warmup occupancy.
  double mean_active = 0.0;        // live conferences (carried load)
  double mean_active_spans = 0.0;  // live spanning conferences
  /// Time-weighted reserved trunk lanes / total lane capacity.
  double trunk_utilization = 0.0;
  u32 trunk_peak = 0;  // high-water lanes on any single pair
  /// Fault accounting (whole run). Fault and repair counts live in
  /// `stats` (trunk_failures, trunk_repairs, link_failures, link_repairs).
  std::uint64_t interrupted = 0;  // conferences torn down by faults
  std::uint64_t reopened = 0;     // interrupted, re-offered, re-admitted
  std::uint64_t lost = 0;         // interrupted and not re-admitted
  std::uint64_t functional_checks = 0;
  bool functional_ok = true;
  std::uint64_t events = 0;
};

/// Run one replication against `cluster`, which must be fresh (no live
/// conferences); the driver starts it when needed and leaves it running
/// (drained) so the caller can inspect or cross_check the final state.
/// Deterministic: one seed fixes the whole event stream, and cluster
/// outcomes are independent of the runtime's worker count.
[[nodiscard]] ClusterTrafficResult run_cluster_traffic(
    cluster::Cluster& cluster, const ClusterTrafficConfig& config);

}  // namespace confnet::sim
