// Session recovery after live link faults. A link failure tears down every
// conference whose realization crosses the dead link (the fabric holds a
// unique path per pair, so there is no in-place reroute); the coordinator
// then re-places each victim through the wait-queue front end:
//   * immediate repack — SessionManager::open probes fresh placements and
//     the victim comes back at once on a healthy window;
//   * wait — no room right now; the victim holds a FIFO ticket and returns
//     when a departure or a repair frees resources (see absorb());
//   * retry — the queue was full; the caller re-admits after a bounded
//     exponential backoff, up to a retry budget, after which the session
//     counts as dropped.
// The coordinator never owns the clock: the DES (sim::Teletraffic) feeds it
// fail/repair/retry events and schedules the backoff delays it computes.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "conference/waitqueue.hpp"

namespace confnet::conf {

/// Knobs for the retry/backoff recovery path.
struct RecoveryPolicy {
  std::size_t queue_capacity = 16;  // wait-queue slots for displaced sessions
  u32 max_retries = 3;              // re-admissions after a full queue
  double base_backoff = 0.5;        // delay before the first retry
  double backoff_multiplier = 2.0;
  double max_backoff = 8.0;         // bound on the exponential growth

  /// Delay before retry number `attempt` (1-based): bounded exponential.
  [[nodiscard]] double backoff_delay(u32 attempt) const noexcept {
    double delay = base_backoff;
    for (u32 i = 1; i < attempt; ++i) {
      delay *= backoff_multiplier;
      if (delay >= max_backoff) return max_backoff;
    }
    return delay < max_backoff ? delay : max_backoff;
  }
};

/// Cumulative recovery accounting. Conservation (audited): every
/// interrupted session ends in exactly one of recovered / dropped /
/// expired, or is still pending.
struct RecoveryStats {
  u64 link_failures = 0;
  u64 link_repairs = 0;
  u64 sessions_interrupted = 0;
  u64 recovered_inplace = 0;     // repacked during the failure event itself
  u64 recovered_after_wait = 0;  // came back through the wait queue
  u64 recovered_after_retry = 0;  // came back on a backoff retry
  u64 retries = 0;               // re-admission attempts made
  u64 dropped = 0;               // retry budget exhausted
  u64 expired = 0;               // caller departed before recovery finished

  [[nodiscard]] u64 recovered() const noexcept {
    return recovered_inplace + recovered_after_wait + recovered_after_retry;
  }

  /// Fold another coordinator's counters in (for cross-shard totals).
  void merge(const RecoveryStats& other) noexcept;

  bool operator==(const RecoveryStats&) const = default;
};

/// Drives fault handling for one WaitQueueManager. All methods are event
/// handlers: the caller supplies the current simulated time and schedules
/// the PendingRetry records this class hands back.
class RecoveryCoordinator {
 public:
  RecoveryCoordinator(WaitQueueManager& wait, RecoveryPolicy policy);

  /// A victim session that came back, possibly under a new session id.
  struct Recovered {
    u32 origin;     // session id torn down by the failure
    u32 session;    // replacement session id
    u32 size;
    double failed_at;
    u32 attempt;    // retries consumed before recovery
  };

  /// A re-admission the caller must schedule after backoff_delay(attempt).
  struct PendingRetry {
    u32 origin;
    u32 size;
    double failed_at;
    u32 attempt;  // 1-based retry number
  };

  /// What one fail_link event did.
  struct FailureImpact {
    std::vector<u32> torn_down;        // victim session ids (already closed)
    std::vector<u32> torn_sizes;       // their sizes (parallel to torn_down)
    std::vector<Recovered> recovered;  // victims repacked immediately
    std::vector<PendingRetry> retries;  // victims needing a scheduled retry
  };
  /// Fail link (level,row) at time `now`: tear down every session crossing
  /// it, then re-admit each victim. Idempotent (already-faulty: no-op).
  FailureImpact fail_link(u32 level, u32 row, double now, util::Rng& rng);

  /// What one repair_link event did.
  struct RepairImpact {
    /// Every waiter the post-repair drain served, recovery or not — callers
    /// that track regular queued tickets (e.g. the concurrent runtime) need
    /// the full list, not just the recovery subset.
    std::vector<WaitQueueManager::ServedTicket> served;
    std::vector<Recovered> recovered;  // waiters served by the freed links
  };
  /// Repair link (level,row) at time `now` and drain the wait queue.
  RepairImpact repair_link(u32 level, u32 row, double now, util::Rng& rng);

  /// Outcome of one scheduled retry. All fields empty: the origin departed
  /// (already counted as expired) or was served through the queue first.
  struct RetryOutcome {
    std::optional<Recovered> recovered;
    std::optional<PendingRetry> again;  // schedule after backoff_delay
    bool dropped = false;               // retry budget exhausted
  };
  RetryOutcome retry(const PendingRetry& pending, double now, util::Rng& rng);

  /// Fold externally-served wait tickets (e.g. from WaitQueueManager::close
  /// on a departure) into the recovery accounting. Tickets that are not
  /// recovery waiters are ignored. Returns the recoveries recognized.
  std::vector<Recovered> absorb(
      const std::vector<WaitQueueManager::ServedTicket>& served, double now);

  /// The original caller gave up (e.g. its holding time elapsed) while its
  /// session was waiting or between retries. Cancels the pending recovery;
  /// true when there was one.
  bool on_origin_departed(u32 origin, double now);

  [[nodiscard]] const RecoveryStats& stats() const noexcept { return stats_; }
  /// Interrupted sessions still waiting or between retries.
  [[nodiscard]] u64 pending() const noexcept { return pending_.size(); }
  [[nodiscard]] const RecoveryPolicy& policy() const noexcept {
    return policy_;
  }
  [[nodiscard]] WaitQueueManager& wait() noexcept { return wait_; }

 private:
  friend void audit::check_recovery(const ::confnet::conf::RecoveryCoordinator&);

  struct Pending {
    u64 ticket;   // wait-queue ticket id (when queued)
    bool queued;  // false: between retries, no ticket held
    u32 size;
    double failed_at;
    u32 attempt;
  };

  /// Re-admit one victim; appends to the impact vectors.
  void admit(u32 origin, u32 size, double failed_at, u32 attempt, double now,
             std::vector<Recovered>& recovered,
             std::vector<PendingRetry>& retries, util::Rng& rng);
  void note_recovered(double now, double failed_at);

  WaitQueueManager& wait_;
  RecoveryPolicy policy_;
  std::map<u32, Pending> pending_;      // by origin session id
  std::map<u64, u32> ticket_origin_;    // wait ticket id -> origin
  RecoveryStats stats_;
};

}  // namespace confnet::conf
