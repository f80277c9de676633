// Striped (per-shard) metrics and trace sinks for the concurrent runtime.
//
// The global obs::Registry is safe to hammer from many threads, but its
// counters would still be cross-core cache-line traffic if every shard
// updated shared atomics per command. The runtime therefore stripes its
// observability by shard:
//
//   * `ShardStats` — plain (non-atomic) counters accumulated by the owner
//     thread only (thread-confined to owner). At burst boundaries the owner
//     copies them into a published snapshot under a per-shard mutex that
//     only snapshot readers ever contend on, so steady-state accounting is
//     contention-free and every published snapshot is internally consistent
//     (the burst-boundary identities of `consistent()` hold). Recovery
//     counters are not re-counted here: the owner copies the shard's
//     `conf::RecoveryStats` from its ControlPlane at each publish.
//   * `ShardTrace` — a fixed ring of trace records written lock-free by the
//     owner thread (thread-confined to owner); reading it is legal only
//     after the owner thread has been joined (Runtime::stop), which is when
//     dump_jsonl serializes it. Mirrors the obs::Tracer JSONL shape so the
//     same tooling reads both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "conference/recovery.hpp"
#include "min/types.hpp"
#include "runtime/command.hpp"

namespace confnet::runtime {

/// Cumulative per-shard accounting, maintained by the owner thread and
/// published at burst boundaries. All fields count since start().
struct ShardStats {
  u64 opens = 0;           // kOpen commands + open_batch elements + replaces
  u64 accepted = 0;        // opens admitted immediately
  u64 queued = 0;          // opens parked in the hold queue
  u64 rejected = 0;        // opens bounced (hold queue full / loss system)
  u64 closes = 0;          // kClose commands that closed a live session
  u64 replaces = 0;        // kReplace commands applied
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

/// One runtime trace record; `name` points at a string literal.
struct ShardTraceRecord {
  u64 seq = 0;        // per-shard append order
  u64 time = 0;       // owner logical clock (commands applied)
  const char* name = "";
  double value = 0.0;
};

/// Fixed-capacity trace ring, thread-confined to the shard's owner thread.
/// capacity 0 disables recording (the record path is then one branch).
/// dump_jsonl may only be called after the owner thread is joined.
class ShardTrace {
 public:
  explicit ShardTrace(std::size_t capacity) : capacity_(capacity) {
    ring_.reserve(capacity);
  }

  /// Owner thread only. Overwrites the oldest record once full.
  void record(const char* name, u64 time, double value) noexcept {
    if (capacity_ == 0) return;
    if (ring_.size() < capacity_) {
      // static_check: allow(hot-alloc) ring grows once up to its reserved
      // capacity, then recycles slots
      ring_.push_back({next_seq_++, time, name, value});
      return;
    }
    ring_[head_] = {next_seq_++, time, name, value};
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  [[nodiscard]] u64 dropped() const noexcept { return dropped_; }
  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }

  /// One JSON object per line, oldest surviving record first, each tagged
  /// with `shard`. Caller must have joined the owner thread.
  void dump_jsonl(std::ostream& os, u32 shard) const;

 private:
  const std::size_t capacity_;          // runtime-owner: immutable
  std::vector<ShardTraceRecord> ring_;  // runtime-owner: worker
  std::size_t head_ = 0;                // runtime-owner: worker
  u64 next_seq_ = 0;                    // runtime-owner: worker
  u64 dropped_ = 0;                     // runtime-owner: worker
};

/// Point-in-time view of the whole runtime: per-shard published snapshots
/// (each internally consistent at a burst boundary) plus their merge.
struct RuntimeSnapshot {
  std::vector<ShardStats> shards;
  ShardStats total;
};

}  // namespace confnet::runtime
