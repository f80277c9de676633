// Per-shard accounting for the concurrent runtime.
//
// Shards never update a shared atomic per command: every admission would
// otherwise cost cross-core cache-line traffic. `ShardStats` holds plain
// (non-atomic) counters that only the owner thread accumulates: the live
// copy is thread-confined to owner. At burst boundaries the owner copies
// them into a published snapshot under a per-shard mutex that only
// snapshot readers ever contend on, so steady-state accounting is
// contention-free and every published snapshot is internally consistent
// (the burst-boundary identities of `consistent()` hold). Recovery counters are not re-counted
// here: the owner copies the shard's `conf::RecoveryStats` from its
// ControlPlane at each publish. The process-wide obs::Registry sees a
// shard's conference counts once, when its control plane is destroyed.
#pragma once

#include <cstdint>
#include <vector>

#include "conference/recovery.hpp"
#include "min/types.hpp"
#include "runtime/command.hpp"

namespace confnet::runtime {

/// Cumulative per-shard accounting, maintained by the owner thread and
/// published at burst boundaries. All fields count since start().
struct ShardStats {
  u64 opens = 0;           // kOpen commands applied
  u64 accepted = 0;        // opens admitted immediately
  u64 queued = 0;          // opens parked in the hold queue
  u64 rejected = 0;        // opens bounced (hold queue full / loss system)
  u64 closes = 0;          // kClose commands that closed a live session
  /// Fault and recovery counts, copied from the shard's ControlPlane
  /// at each publish (the control plane is their only owner).
  conf::RecoveryStats recovery;
  u64 rejected_stopped = 0;  // commands refused because the shard stopped
  u64 submit_bounced = 0;  // try_push kQueueFull bounces (backpressure);
                           // a retried command adds one accept to
                           // `completed`-side stats, never two
  u64 bursts = 0;          // pop_batch drains that yielded work
  u64 max_burst = 0;       // largest burst drained
  u64 max_queue_depth = 0;  // deepest the command queue got at drain time
  u64 completed = 0;       // commands applied (the owner's logical clock
                           // and the drain watermark)
  u32 active_sessions = 0;

  /// Burst-boundary identities every published snapshot satisfies.
  /// Returns false (never throws) so tests can assert on live snapshots.
  [[nodiscard]] bool consistent() const noexcept {
    return opens == accepted + queued + rejected && max_burst <= completed &&
           recovery.recovered() + recovery.dropped + recovery.expired <=
               recovery.sessions_interrupted;
  }

  /// Fold another shard's counters in (for cross-shard totals).
  void merge(const ShardStats& other) noexcept;
};

/// Point-in-time view of the whole runtime: per-shard published snapshots
/// (each internally consistent at a burst boundary) plus their merge.
struct RuntimeSnapshot {
  std::vector<ShardStats> shards;
  ShardStats total;
};

}  // namespace confnet::runtime
