// The dynamic-conference teletraffic experiment: Poisson session arrivals
// into a SessionManager over a chosen network design, with blocking
// accounting, time-weighted occupancy, optional per-member talk-spurt
// simulation, periodic functional verification of the fabric, and an
// optional MTTF/MTTR link-fault process with session recovery (availability
// results: dropped-session rate, recovery latency, degraded capacity).
#pragma once

#include <cstdint>

#include "conference/recovery.hpp"
#include "conference/session.hpp"
#include "sim/traffic.hpp"
#include "util/stats.hpp"

namespace confnet::sim {

struct TeletrafficConfig {
  TrafficModel traffic;
  conf::PlacementPolicy policy = conf::PlacementPolicy::kBuddy;
  double duration = 1000.0;   // total simulated time
  double warmup = 100.0;      // statistics discarded before this time
  std::uint64_t seed = 1;
  /// Periodically run ConferenceNetworkBase::verify_delivery.
  bool verify_functional = false;
  double verify_interval = 100.0;
  /// Simulate per-member talk spurts (speaker concurrency stats).
  bool talk_spurts = false;
  double mean_talk = 1.0;
  double mean_silence = 2.0;
  /// Dynamic membership churn: per active session, members join at
  /// `join_rate` and leave at `leave_rate` (events per unit time).
  bool membership_churn = false;
  double join_rate = 0.5;
  double leave_rate = 0.5;
  /// Link-fault process: interstage links fail at `fault_rate` (MTTF =
  /// 1/fault_rate) and each failed link is repaired after an exponential
  /// delay with rate `repair_rate` (MTTR = 1/repair_rate). 0 disables the
  /// process entirely — results are then byte-identical to a build without
  /// it. Requires a fault-capable design (direct or enhanced).
  double fault_rate = 0.0;
  double repair_rate = 1.0;
  conf::RecoveryPolicy recovery;
  /// Arrivals per arrival event. 1 (the default) preserves the classic
  /// one-request-per-event path byte-for-byte; k > 1 drains k simultaneous
  /// requests through SessionManager::open_batch (canonical descending-size
  /// order), modelling bursty signalling load on the admission path.
  u32 arrival_burst = 1;
};

struct TeletrafficResult {
  conf::SessionStats stats;          // post-warmup attempts/blocks
  double blocking_probability = 0.0;
  double mean_active_sessions = 0.0;  // time-weighted (carried Erlangs)
  double mean_busy_ports = 0.0;       // time-weighted
  double offered_erlangs = 0.0;
  /// Little's law cross-check: accepted rate * mean holding. Should be
  /// close to mean_active_sessions in steady state.
  double littles_law_estimate = 0.0;
  util::Summary session_stages;       // stages traversed per session
  util::Summary speaker_concurrency;  // concurrent speakers per conference
  std::uint64_t functional_checks = 0;
  bool functional_ok = true;
  std::uint64_t events = 0;
  /// Membership churn accounting (whole run, not warmup-adjusted).
  std::uint64_t joins = 0;
  std::uint64_t joins_blocked = 0;
  std::uint64_t leaves = 0;
  /// Availability accounting (whole run; all zero when fault_rate == 0).
  std::uint64_t link_failures = 0;
  std::uint64_t link_repairs = 0;
  std::uint64_t sessions_interrupted = 0;
  std::uint64_t sessions_recovered = 0;
  std::uint64_t sessions_dropped = 0;
  std::uint64_t sessions_expired = 0;
  std::uint64_t recovery_pending = 0;  // still in flight at the end
  /// Dropped / interrupted (0 when nothing was interrupted).
  double dropped_session_rate = 0.0;
  /// Time-weighted post-warmup fraction of input/output pairs disconnected
  /// by live faults (1 - min::connectivity, averaged over observed time).
  double degraded_fraction = 0.0;
  /// Interrupt-to-recovery delay of recovered sessions.
  util::Summary recovery_latency;
};

/// Run one replication against the given design. The design must be fresh
/// (no active conferences) and is drained to empty only by simulated
/// departures — sessions still open at the end are left open.
[[nodiscard]] TeletrafficResult run_teletraffic(
    conf::ConferenceNetworkBase& network, const TeletrafficConfig& config);

}  // namespace confnet::sim
