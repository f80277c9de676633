// Multi-fabric cluster: K runtime-served conference fabrics joined by
// trunk lanes, scaling the paper's single N = 2^n switching network to
// K * N ports.
//
// A conference confined to one shard is served by that shard's own control
// plane (the runtime command path — the admission fast path). A conference
// spanning shards is admitted by a single-round optimistic claim:
//
//   claim    — the trunk mesh (one sharer slot per touched-shard pair, all
//              lanes multiplexed up to conferences_per_lane ways) is
//              acquired up front in the TrunkBook, all-or-nothing. An
//              exhausted or faulty pair refuses the open before any shard
//              sees a command — kBlockedTrunk costs zero coordination
//              rounds.
//   open     — every local leg (`members + 1` ports: the shard's placer
//              draws the member ports plus one trunk relay termination,
//              realized as an ordinary ALL_PAIRS conference — the local
//              fan-in) is opened in one staged burst; the legs run
//              concurrently on their shards.
//   settle   — if every leg was granted the conference is live. Any
//              refusal (placement/capacity/fault) rolls back: granted legs
//              are closed and the provisional mesh released — audited zero
//              residue.
//
// Because the claim comes first, a request that both a trunk pair and a
// leg would refuse is reported kBlockedTrunk. The protocol is pinned
// against a serial model (per-shard loss-mode admission plus a TrunkBook,
// the same claim/open/settle steps on one thread): verdicts, causes,
// cluster ids and leg session ids match step for step.
//
// Delivery model: each leg's local fan-in combines its member signals; the
// relay port exports the combined signal onto the trunk mesh and injects
// the union of the remote legs' exports into the local SignalPlane, so
// every member hears exactly the global member set. cross_check() proves
// that against a flattened single-fabric oracle: the same conferences
// realized on one 2^(stages + log2 K) network must deliver identical
// member sets (the paper's model, unchanged by sharding).
//
// Shards run loss-mode admission (no hold queue, no retry budget): a
// reservation must be a synchronous yes/no, never a parked ticket, and a
// link-fault victim is either repacked in place (the cluster rehomes the
// leg onto the replacement session id) or terminally dropped (the cluster
// tears the whole conference down and reports it interrupted).
//
// Thread-safety: externally synchronized — one coordinator thread drives
// the public API. The runtime underneath is internally synchronized (its
// submission path is thread-safe; stress tests may feed intra-shard
// traffic through serving_runtime() from other threads, bypassing cluster
// bookkeeping). cross_check() additionally requires a quiescent cluster:
// no command in flight on any shard (every open/close/fault call returned
// and no external producer is submitting).
#pragma once

#include <map>
#include <vector>

#include "cluster/portmap.hpp"
#include "cluster/stats.hpp"
#include "cluster/trunkbook.hpp"
#include "runtime/runtime.hpp"
#include "util/audit.hpp"

namespace confnet::cluster {

/// Whole-cluster construction knobs.
struct ClusterConfig {
  u32 shards = 4;    // K fabrics; power of two keeps the flattened oracle
                     // a legal 2^(stages + log2 K) network
  u32 workers = 1;   // runtime owner threads (shard i belongs to i % W)
  u32 stages = 6;    // per-shard fabric: N = 2^stages ports
  min::Kind kind = min::Kind::kIndirectCube;
  u32 dilation = 2;  // uniform interstage channels per shard fabric
  conf::PlacementPolicy policy = conf::PlacementPolicy::kFirstFit;
  conf::PlacerBackend backend = conf::PlacerBackend::kFast;
  std::size_t queue_depth = 256;   // per-shard command queue bound
  u32 trunk_lanes = 4;             // trunk lanes per shard pair
  u32 conferences_per_lane = 1;    // spanning conferences multiplexed onto
                                   // one lane (1 = mixer-per-lane)
  std::size_t trace_capacity = 0;  // per-shard trace ring (0 = disabled)
  u64 seed = 1;                    // base seed; shard i uses seed + i
};

/// Verdict of one cluster admission attempt.
enum class Admit : std::uint8_t {
  kAccepted,
  kBlockedLocal,  // a shard refused its leg (placement/capacity/fault)
  kBlockedTrunk,  // trunk mesh exhausted or faulty at claim time
};

/// One leg of an open request: `members` conference members on `shard`.
struct LegSpec {
  u32 shard = 0;
  u32 members = 0;
};

/// What open() reports. `id` is valid only on kAccepted; `blocked_shard`
/// names the refusing shard on kBlockedLocal.
struct OpenReport {
  Admit result = Admit::kBlockedLocal;
  u64 id = 0;
  u32 blocked_shard = 0;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- lifecycle ----------------------------------------------------------

  void start();
  void stop();
  /// Block until every submitted command has been applied and published.
  void drain();

  // --- admission (coordinator thread) -------------------------------------

  /// Open a conference. One leg = intra-shard (members >= 2, served by the
  /// shard alone); several legs = spanning (distinct shards, members >= 1
  /// per leg; each leg is realized as members + 1 local ports, the extra
  /// one being the trunk relay termination) via the single-round
  /// optimistic claim.
  [[nodiscard]] OpenReport open(const std::vector<LegSpec>& legs);

  /// Close a live conference: close every leg, release its trunk mesh.
  /// False when `id` is not live (already closed or interrupted).
  bool close(u64 id);

  // --- fault process (coordinator thread) ---------------------------------

  /// Fail the trunk between shards a and b. Every spanning conference
  /// whose mesh crosses the pair is torn down (all legs closed, lanes
  /// released) and reported interrupted; returns their ids. Idempotent.
  std::vector<u64> fail_trunk(u32 a, u32 b);

  /// Repair the trunk between shards a and b; true when it was faulty.
  bool repair_trunk(u32 a, u32 b);

  /// Fail interstage link (level,row) inside a shard. The shard tears down
  /// and (loss-mode) repacks victims; the cluster rehomes relocated legs
  /// and tears down conferences whose leg was terminally dropped. Returns
  /// the ids of conferences interrupted (intra and spanning).
  std::vector<u64> fail_link(u32 shard, u32 level, u32 row);

  /// Repair interstage link (level,row) inside a shard; true when it was
  /// faulty.
  bool repair_link(u32 shard, u32 level, u32 row);

  // --- observability ------------------------------------------------------

  /// One live cluster conference: its shard legs (leg sessions are shard
  /// session ids) and whether it spans shards.
  struct Leg {
    u32 shard = 0;
    u32 session = 0;  // shard-local session id
    u32 members = 0;  // conference members on this leg (relay excluded)
  };
  struct Conference {
    std::vector<Leg> legs;  // ascending by shard
    bool spanning = false;
  };

  [[nodiscard]] const std::map<u64, Conference>& conferences()
      const noexcept {
    return live_;
  }
  [[nodiscard]] u64 active_conferences() const noexcept {
    return live_.size();
  }
  [[nodiscard]] u64 active_spans() const noexcept;

  [[nodiscard]] const ClusterConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const PortMap& port_map() const noexcept { return map_; }
  [[nodiscard]] const TrunkBook& trunks() const noexcept { return trunks_; }
  [[nodiscard]] const ClusterStats& stats() const noexcept { return stats_; }

  /// Merged + per-shard runtime stats (thread-safe published snapshots).
  [[nodiscard]] runtime::RuntimeSnapshot runtime_snapshot() const {
    return runtime_.snapshot();
  }

  /// The serving loop. Thread-safe for submission; traffic injected here
  /// directly (stress tests) is invisible to cluster bookkeeping and must
  /// not close or fault cluster-owned state.
  [[nodiscard]] runtime::Runtime& serving_runtime() noexcept {
    return runtime_;
  }

  // --- verification (coordinator thread, quiescent cluster) ---------------

  /// Deep delivery check against the flattened single-fabric oracle:
  /// every live conference, realized on one 2^(stages + log2 K) network,
  /// must deliver exactly the member sets the cluster's per-shard legs +
  /// trunk relays deliver. Also re-verifies each shard fabric (incremental
  /// and stateless oracle paths) and runs the cluster conservation audit.
  /// Throws audit::AuditError on any mismatch.
  void cross_check() const;

 private:
  friend void audit::check_cluster(const ::confnet::cluster::Cluster&);

  [[nodiscard]] OpenReport open_intra(const LegSpec& leg);
  [[nodiscard]] OpenReport open_span(const std::vector<LegSpec>& legs);

  /// Validate a spanning request and return its legs sorted by shard.
  [[nodiscard]] std::vector<LegSpec> validated_span(
      const std::vector<LegSpec>& legs) const;

  /// Close several legs in one staged burst (skipping `skip_shard`'s leg,
  /// whose session is already gone; pass shard >= K to close all).
  void close_legs(const std::vector<Leg>& legs, u32 skip_shard);

  /// Tear down a live conference (faults): close surviving legs, release
  /// the trunk mesh, erase it. `dead_shard`/`dead_session` name a leg whose
  /// shard session is already gone (skip its close); pass shard >= K for
  /// none.
  void tear_down(u64 id, u32 dead_shard);

  [[nodiscard]] std::vector<u32> touched_shards(const Conference& c) const;

  const ClusterConfig config_;       // cluster-owner: immutable
  PortMap map_;                      // cluster-owner: immutable
  runtime::Runtime runtime_;         // cluster-owner: queue
  TrunkBook trunks_;                 // cluster-owner: caller
  std::map<u64, Conference> live_;   // cluster-owner: caller
  u64 next_id_ = 0;                  // cluster-owner: caller
  ClusterStats stats_;               // cluster-owner: caller
  // Reused fan-out scratch (coordinator-only): staged command bursts and
  // their pooled completions; steady-state spans allocate nothing here.
  runtime::CommandStage stage_;                  // cluster-owner: caller
  std::vector<runtime::PooledResult> pending_;   // cluster-owner: caller
};

}  // namespace confnet::cluster
