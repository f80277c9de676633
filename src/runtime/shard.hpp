// One shard of the concurrent admission runtime: a complete control plane
// (fabric + SessionManager + placer + WaitQueueManager + RecoveryCoordinator)
// plus the bounded MPSC command queue that feeds it.
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
// commands (batched admission rides kOpenBatch, which the *producer* forms).
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "conference/designs.hpp"
#include "conference/placement.hpp"
#include "conference/recovery.hpp"
#include "conference/waitqueue.hpp"
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
  std::size_t trace_capacity = 0;   // per-shard trace ring (0 = disabled)
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

  /// Current command queue depth. Thread-safe (advisory: racy by nature).
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

  /// try_push bounces so far (kQueueFull verdicts). Thread-safe.
  [[nodiscard]] u64 submit_bounced() const { return queue_.bounced(); }

  // --- owner side: exactly one worker thread -----------------------------

  /// Drain and apply every queued command in bursts; returns how many were
  /// applied. Publishes stats at each burst boundary. Owner thread only.
  std::size_t process_available();

  /// Run every still-pending recovery retry to its terminal state
  /// (recovered or dropped), ignoring backoff due times, then publish.
  /// Called by the owner once the queue is closed and empty. Owner thread
  /// only.
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

  /// The trace ring. Reading it is legal only after the owner thread has
  /// been joined (Runtime::stop), or from the owner thread itself.
  [[nodiscard]] const ShardTrace& trace() const { return trace_; }

  /// Control plane peek for tests/verification. Owner thread or post-join.
  [[nodiscard]] const conf::WaitQueueManager& wait() const { return wait_; }
  [[nodiscard]] const conf::RecoveryCoordinator& recovery() const {
    return recovery_;
  }

  [[nodiscard]] u32 index() const noexcept { return index_; }
  [[nodiscard]] u32 ports() const noexcept { return network_.size(); }

 private:
  void apply(Command& cmd) CONFNET_EXCLUDES(pub_mu_);
  /// Answer a refused command inline with kRejectedStopped through
  /// whichever completion channel it carries (slot or done).
  void reject_inline(Command& cmd);
  /// Run every scheduled retry due at or before `horizon`.
  void run_retries(double horizon);
  void publish() CONFNET_EXCLUDES(pub_mu_);
  void serve_open(OpenOutcome& out, const conf::WaitQueueManager::RequestResult& r);
  void absorb_served(CommandResult& result,
                     std::vector<conf::WaitQueueManager::ServedTicket> served);
  void schedule_retries(
      std::vector<conf::RecoveryCoordinator::PendingRetry> retries);

  /// One scheduled backoff retry, due at logical time `due`.
  struct DueRetry {
    double due;
    conf::RecoveryCoordinator::PendingRetry pending;
  };

  const u32 index_;           // runtime-owner: immutable
  const ShardConfig config_;  // runtime-owner: immutable

  // Control plane: one fabric and its admission/recovery stack.
  conf::DirectConferenceNetwork network_;  // runtime-owner: worker
  conf::WaitQueueManager wait_;            // runtime-owner: worker
  conf::RecoveryCoordinator recovery_;     // runtime-owner: worker
  util::Rng rng_;                          // runtime-owner: worker
  u64 now_ = 0;                            // runtime-owner: worker
  std::vector<DueRetry> retries_;          // runtime-owner: worker
  ShardStats stats_;                       // runtime-owner: worker
  ShardTrace trace_;                       // runtime-owner: worker
  std::vector<Command> burst_;             // runtime-owner: worker

  // Hand-off points (internally synchronized).
  BoundedMpscQueue<Command> queue_;  // runtime-owner: queue
  mutable util::Mutex pub_mu_;       // runtime-owner: lock
  mutable util::CondVar pub_cv_;     // runtime-owner: lock
  ShardStats published_ CONFNET_GUARDED_BY(pub_mu_);
  std::atomic<u64> rejected_stopped_{0};  // runtime-owner: atomic
};

}  // namespace confnet::runtime
