// The conference control plane: one wait queue, session recovery after live
// link faults, and the backoff-retry agenda, driven by a clock the caller
// supplies. A link failure tears down every conference whose realization
// crosses the dead link (the fabric holds a unique path per pair, so there
// is no in-place reroute); the control plane then re-places each victim
// through the wait-queue front end, and a victim that comes back keeps the
// session id it had before the fault (SessionManager::reinstate), so a
// caller never learns a replacement id. The paths back:
//   * immediate repack — SessionManager::open probes fresh placements and
//     the victim comes back at once on a healthy window;
//   * wait — no room right now; the victim holds a FIFO ticket and returns
//     when a departure, a teardown or a repair frees resources;
//   * retry — the queue was full; the victim goes on the agenda and is
//     re-admitted after a bounded exponential backoff, up to a retry
//     budget, after which the session counts as dropped.
// The caller owns the clock and the RNG: fail_link takes `now` (the DES
// passes simulated time, a runtime shard its count of applied commands) to
// stamp victims and schedule their retries, and run_due(horizon) runs the
// agenda entries that time has reached.
#pragma once

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "conference/waitqueue.hpp"

namespace confnet::conf {

/// Knobs for the retry/backoff recovery path.
struct RecoveryPolicy {
  u32 max_retries = 3;        // re-admissions after a full queue
  double base_backoff = 0.5;  // delay before the first retry
  double backoff_multiplier = 2.0;
  double max_backoff = 8.0;   // bound on the exponential growth

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

/// Cumulative recovery accounting: the only tally of these events, folded
/// once on destruction into the obs::Registry (`fault/link_*`,
/// `conf/recovery_*`). Conservation (audited): every interrupted session
/// ends in exactly one of recovered / dropped / expired, or is still
/// pending.
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

  /// Fold another control plane's counters in (for cross-shard totals).
  void merge(const RecoveryStats& other) noexcept;

  bool operator==(const RecoveryStats&) const = default;
};

/// Admission, wait queue, fault recovery and retry agenda over one borrowed
/// design. Opens go straight to wait(); everything that can bring an
/// interrupted session back goes through the named calls below, and each
/// reports every session it brought back, whichever path fired.
class ControlPlane {
 public:
  /// `wait_capacity` sizes the hold queue (0 = loss system); `placement`,
  /// `allow_bypass` and `backend` are forwarded to the WaitQueueManager.
  ControlPlane(ConferenceNetworkBase& network, RecoveryPolicy recovery,
               PlacementPolicy placement, std::size_t wait_capacity,
               bool allow_bypass = false,
               PlacerBackend backend = PlacerBackend::kFast);
  /// Folds stats() into the obs::Registry, once: not copyable or movable.
  ~ControlPlane();
  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  /// A victim session that came back, live again under its own id.
  struct Recovered {
    u32 session;  // the id the failure tore down
    u32 size;
    double failed_at;
    u32 attempt;  // retries consumed before recovery
  };

  /// What one call did. Every session the call opened appears exactly once:
  /// in `served` when it answers a caller's own wait ticket, in `recovered`
  /// (under the victim's id) when it brings an interrupted session back.
  struct Effects {
    std::vector<u32> torn_down;  // fail_link: victim ids (already closed)
    std::vector<WaitQueueManager::ServedTicket> served;
    std::vector<Recovered> recovered;
    /// Due times this call put on the agenda, in schedule order. A caller
    /// with an event clock wakes run_due once at each.
    std::vector<double> scheduled;
  };

  /// Close `session` through the wait queue (the freed room goes to the
  /// waiters) or, when it is an interrupted session still on the recovery
  /// path, cancel that recovery (counted expired). Unknown ids: no effect.
  Effects close(u32 session, util::Rng& rng);

  /// Fail link (level,row): tear down every session crossing it, re-admit
  /// each victim, then drain the wait queue so the capacity the victims
  /// freed reaches the queue head. Idempotent (already faulty: no effect).
  Effects fail_link(u32 level, u32 row, double now, util::Rng& rng);

  /// Repair link (level,row) and drain the wait queue. Idempotent.
  Effects repair_link(u32 level, u32 row, util::Rng& rng);

  /// Run every agenda entry due at or before `horizon`, in due order (FIFO
  /// among equal due times); each runs at its own due time, so a retry that
  /// goes around again and falls due within the horizon runs in the same
  /// call. run_due(+inf) ends every entry within the retry budget.
  Effects run_due(double horizon, util::Rng& rng);

  /// Earliest agenda due time, if any entry is scheduled.
  [[nodiscard]] std::optional<double> next_due() const;

  [[nodiscard]] const RecoveryStats& stats() const noexcept { return stats_; }
  /// Interrupted sessions still waiting or between retries.
  [[nodiscard]] u64 pending() const noexcept { return pending_.size(); }
  [[nodiscard]] WaitQueueManager& wait() noexcept { return wait_; }
  [[nodiscard]] const WaitQueueManager& wait() const noexcept { return wait_; }

 private:
  friend void audit::check_recovery(const ::confnet::conf::ControlPlane&);

  /// Agenda key: (due time, schedule order).
  using Slot = std::pair<double, u64>;

  struct Pending {
    u32 size;
    double failed_at;
    u32 attempt;  // queued: retries consumed; on the agenda: next retry's
    bool queued;  // true: holds wait ticket `ticket`; false: on the agenda
    u64 ticket;
    Slot slot;
  };

  /// Re-admit one victim at time `now`: recover it, queue it, put it on the
  /// agenda or drop it.
  void admit(u32 origin, u32 size, double failed_at, u32 attempt, double now,
             Effects& fx, util::Rng& rng);
  /// Split served tickets into the caller's own and recovered victims.
  void absorb(const std::vector<WaitQueueManager::ServedTicket>& served,
              Effects& fx);
  /// Move `replacement`, just opened for victim `r.session`, onto the
  /// victim's id and report the recovery.
  void note_recovered(u32 replacement, const Recovered& r, Effects& fx);

  WaitQueueManager wait_;
  RecoveryPolicy policy_;
  std::map<u32, Pending> pending_;    // by origin session id
  std::map<u64, u32> ticket_origin_;  // wait ticket id -> origin
  std::map<Slot, u32> agenda_;        // due retries -> origin
  u64 next_slot_ = 0;
  RecoveryStats stats_;
};

}  // namespace confnet::conf
