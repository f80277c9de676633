// One shard of the concurrent admission runtime: a fabric and the
// conf::ControlPlane over it (admission, wait queue, recovery and retry
// agenda), driven on logical time — the count of commands applied — and fed
// by a bounded MPSC command queue.
//
// Thread-safety contract: thread-confined to owner. Every mutable control
// plane member is touched by exactly one worker thread (the shard's owner);
// producers interact only through submit()/submit_blocking() (which touch
// nothing but the internal thread-safe queue) and through snapshot()/
// wait_published() (which read the published stats copy under its own
// mutex). The static_check `runtime-owner` rule enforces that every member
// here is either CONFNET_GUARDED_BY a mutex or tagged with its owner.
//
// Determinism: outcomes depend only on the per-shard command sequence and
// the shard's seed — never on burst boundaries, worker count, or wall-clock
// timing. Bursts amortize queue locking; they do not reorder or coalesce
// commands (a producer that wants a burst stages its commands).
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "conference/designs.hpp"
#include "conference/placement.hpp"
#include "conference/recovery.hpp"
#include "min/types.hpp"
#include "runtime/command.hpp"
#include "runtime/queue.hpp"
#include "runtime/shard_obs.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace confnet::runtime {

/// Per-shard construction knobs (shared by every shard of a Runtime).
struct ShardConfig {
  u32 stages = 6;  // fabric size: N = 2^stages ports per shard
  min::Kind kind = min::Kind::kIndirectCube;
  u32 dilation = 1;  // uniform channel multiplicity between stages
  conf::PlacementPolicy policy = conf::PlacementPolicy::kFirstFit;
  conf::PlacerBackend backend = conf::PlacerBackend::kFast;
  std::size_t queue_depth = 256;    // command queue bound (backpressure)
  std::size_t wait_capacity = 16;   // hold queue slots (0 = loss system)
  bool wait_bypass = false;         // smaller waiters may bypass the head
  conf::RecoveryPolicy recovery{};  // retry/backoff knobs
  u64 seed = 1;                     // base seed; shard i uses seed + i
};

class Shard {
 public:
  Shard(u32 index, const ShardConfig& config);

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  // --- producer side: any thread -----------------------------------------

  /// Enqueue without blocking. kQueueFull: backpressure, caller keeps the
  /// command — the bounce is counted once in `submit_bounced` and never in
  /// `pushed()`, so a retried command contributes exactly one accept to
  /// the drain watermark. kStopped: the completion already ran inline with
  /// kRejectedStopped. Thread-safe.
  SubmitStatus submit(Command&& cmd);

  /// Enqueue, blocking while the queue is full. Thread-safe.
  SubmitStatus submit_blocking(Command&& cmd);

  /// Stop accepting new commands; already-queued ones keep draining.
  void close_queue() { queue_.close(); }

  /// Commands accepted so far (the drain watermark). Thread-safe.
  [[nodiscard]] u64 submitted() const { return queue_.pushed(); }

  // --- owner side: exactly one worker thread -----------------------------

  /// Apply queued commands in bursts until one burst takes everything it
  /// found queued; returns how many were applied. A command that lands
  /// after that burst waits for the next call. Publishes stats at each
  /// burst boundary. Owner thread only.
  std::size_t process_available();

  /// Run the whole retry agenda (run_due(+inf)): every victim between
  /// retries ends recovered, dropped or queued within its retry budget.
  /// Then publish. Called by the owner once the queue is closed and empty.
  /// Owner thread only.
  void flush_retries();

  // --- snapshot side: any thread ------------------------------------------

  /// Last published stats (a burst-boundary copy; always consistent()).
  /// Thread-safe.
  [[nodiscard]] ShardStats snapshot() const;

  /// Block until the published completion count reaches `watermark`
  /// (i.e. every command accepted before the watermark was applied and
  /// published). Thread-safe.
  void wait_published(u64 watermark) const;

  // --- post-join: owner thread finished -----------------------------------

  /// Control plane peek for tests/verification: the wait queue, and the
  /// control plane itself for its recovery books. Owner thread or
  /// post-join.
  [[nodiscard]] const conf::WaitQueueManager& wait() const {
    return control_.wait();
  }
  [[nodiscard]] const conf::ControlPlane& recovery() const { return control_; }

  [[nodiscard]] u32 index() const noexcept { return index_; }
  [[nodiscard]] u32 ports() const noexcept { return network_.size(); }

 private:
  void apply(Command& cmd) CONFNET_EXCLUDES(pub_mu_);
  /// Answer a refused command inline with kRejectedStopped through
  /// whichever completion channel it carries (slot or done).
  void reject_inline(Command& cmd);
  void publish() CONFNET_EXCLUDES(pub_mu_);

  const u32 index_;           // runtime-owner: immutable

  conf::DirectConferenceNetwork network_;  // runtime-owner: worker
  conf::ControlPlane control_;             // runtime-owner: worker
  util::Rng rng_;                          // runtime-owner: worker
  u64 now_ = 0;                            // runtime-owner: worker
  ShardStats stats_;                       // runtime-owner: worker
  std::vector<Command> burst_;             // runtime-owner: worker

  // Hand-off points (internally synchronized).
  BoundedMpscQueue<Command> queue_;  // runtime-owner: queue
  mutable util::Mutex pub_mu_;       // runtime-owner: lock
  mutable util::CondVar pub_cv_;     // runtime-owner: lock
  ShardStats published_ CONFNET_GUARDED_BY(pub_mu_);
  std::atomic<u64> rejected_stopped_{0};  // runtime-owner: atomic
};

}  // namespace confnet::runtime
