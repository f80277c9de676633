#include "sim/teletraffic.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "min/faults.hpp"
#include "sim/des.hpp"
#include "util/error.hpp"
#include "util/trace.hpp"

namespace confnet::sim {

namespace {

/// Talk-spurt state of one live session.
struct SpurtState {
  bool alive = true;
  u32 talking = 0;
  u32 members = 0;
  double last_change = 0.0;
  // Time-weighted sum of concurrent-speaker count, for the mean.
  double weighted_speakers = 0.0;
  double observed_time = 0.0;
};

}  // namespace

TeletrafficResult run_teletraffic(conf::ConferenceNetworkBase& network,
                                  const TeletrafficConfig& config) {
  expects(config.duration > 0.0 && config.warmup >= 0.0 &&
              config.warmup < config.duration,
          "teletraffic needs 0 <= warmup < duration");
  expects(network.active_count() == 0,
          "teletraffic needs a fresh network design");

  // Key any enabled trace to this run's seed: identical seeds must dump
  // byte-identical traces (the determinism contract of obs::Tracer).
  if (obs::Tracer::global().enabled())
    obs::Tracer::global().set_run_key(config.seed);

  Simulator des;
  util::Rng rng(config.seed);
  // The wait queue fronts the session manager only for fault recovery;
  // regular arrivals keep calling manager.open directly, and with
  // fault_rate == 0 the queue stays empty forever, so the zero-fault event
  // stream (and its RNG consumption) is identical to a manager-only run.
  const bool faults_on = config.fault_rate > 0.0;
  conf::WaitQueueManager wait(network, config.policy,
                              faults_on ? config.recovery.queue_capacity : 0,
                              /*allow_bypass=*/false);
  conf::SessionManager& manager = wait.sessions();
  std::optional<conf::RecoveryCoordinator> recovery;
  if (faults_on) {
    expects(network.supports_faults(),
            "fault_rate > 0 needs a fault-capable design");
    expects(network.n() >= 2, "fault process needs interstage links");
    recovery.emplace(wait, config.recovery);
  }
  TalkSpurtProcess spurts(config.mean_talk, config.mean_silence);

  TeletrafficResult result;
  result.offered_erlangs = config.traffic.offered_erlangs();

  // Time-weighted occupancy accounting (post-warmup).
  double last_t = config.warmup;
  double session_area = 0.0;
  double port_area = 0.0;
  u32 busy_ports = 0;
  conf::SessionStats warm_start;  // stats snapshot at warmup end
  bool warm_snapshotted = false;
  util::RunningStats stages;
  util::RunningStats speakers;

  const auto advance_area = [&](double now) {
    if (now <= last_t) return;
    session_area += manager.active_sessions() * (now - last_t);
    port_area += static_cast<double>(busy_ports) * (now - last_t);
    last_t = now;
  };
  const auto maybe_snapshot = [&] {
    if (!warm_snapshotted && des.now() >= config.warmup) {
      warm_start = manager.stats();
      warm_snapshotted = true;
      last_t = des.now();
      session_area = port_area = 0.0;
    }
  };

  // --- Fault-recovery bookkeeping --------------------------------------
  // A session recovered after an interruption comes back under a NEW
  // session id; `redirect` chains origin -> replacement so the departure
  // and churn events scheduled against the origin keep finding it.
  std::map<u32, u32> redirect;
  const auto resolve = [&](u32 sid) {
    auto it = redirect.find(sid);
    while (it != redirect.end()) {
      sid = it->second;
      it = redirect.find(sid);
    }
    return sid;
  };
  util::RunningStats latency_stats;
  const auto note_recovered =
      [&](const std::vector<conf::RecoveryCoordinator::Recovered>& recs) {
        for (const auto& r : recs) {
          redirect[r.origin] = r.session;
          busy_ports +=
              static_cast<u32>(manager.members_of(r.session).size());
          latency_stats.add(des.now() - r.failed_at);
        }
      };

  // Time-weighted disconnected-pair fraction while links are down
  // (post-warmup, like the occupancy areas).
  double degraded_area = 0.0;
  double degraded_level = 0.0;
  double degraded_last = config.warmup;
  const auto advance_degraded = [&](double now) {
    const double from = std::max(degraded_last, config.warmup);
    if (now > from) degraded_area += degraded_level * (now - from);
    degraded_last = std::max(degraded_last, now);
  };
  const auto refresh_degraded = [&] {
    advance_degraded(des.now());
    degraded_level = 1.0 - min::connectivity(network.kind(), network.n(),
                                             *network.faults());
  };

  // --- Talk-spurt machinery -------------------------------------------
  std::function<void(std::shared_ptr<SpurtState>, bool)> schedule_toggle =
      [&](std::shared_ptr<SpurtState> st, bool to_talking) {
        // Wait out the state being left: a silence before talking starts,
        // a talk spurt before it ends.
        const double dt = spurts.next_duration(!to_talking, rng);
        des.schedule_in(dt, [&, st, to_talking] {
          if (!st->alive) return;
          const double now = des.now();
          if (now >= config.warmup) {
            st->weighted_speakers += st->talking * (now - st->last_change);
            st->observed_time += now - st->last_change;
          }
          st->last_change = now;
          if (to_talking) {
            ++st->talking;
            schedule_toggle(st, false);
          } else {
            expects(st->talking > 0, "talk spurt underflow");
            --st->talking;
            schedule_toggle(st, true);
          }
        });
      };

  // --- Membership churn --------------------------------------------------
  // Per live session, joins and leaves arrive as independent Poisson
  // processes; the session's departure invalidates the chain via `alive`.
  std::function<void(u32, std::shared_ptr<bool>)> schedule_churn =
      [&](u32 sid, std::shared_ptr<bool> alive) {
        const double total = config.join_rate + config.leave_rate;
        if (total <= 0.0) return;
        des.schedule_in(rng.exponential(total), [&, sid, alive] {
          if (!*alive) return;
          const u32 live = resolve(sid);
          // An interrupted session waiting for recovery has no membership
          // to churn; its chain simply ends (recovered sessions restart
          // with their original member count).
          if (!manager.contains(live)) return;
          const bool join =
              rng.uniform() * (config.join_rate + config.leave_rate) <
              config.join_rate;
          if (join) {
            const auto [r, port] = manager.join(live, rng);
            if (r == conf::OpenResult::kAccepted) ++busy_ports;
          } else {
            const auto& members = manager.members_of(live);
            if (members.size() > 2) {
              const u32 port = members[rng.below(members.size())];
              if (manager.leave(live, port)) --busy_ports;
            }
          }
          schedule_churn(sid, alive);
        });
      };

  // --- Arrival process -------------------------------------------------
  // Follow-up wiring of one accepted open: occupancy, stage stats, talk
  // spurts, churn chain and the holding-time departure. Shared between the
  // classic one-request path and the batched burst path.
  const auto on_accepted = [&](u32 size, u32 sid) {
    busy_ports += size;
    if (des.now() >= config.warmup)
      stages.add(network.stages_for(manager.handle_of(sid)));

    std::shared_ptr<SpurtState> st;
    if (config.talk_spurts) {
      st = std::make_shared<SpurtState>();
      st->members = size;
      st->last_change = des.now();
      for (u32 m = 0; m < size; ++m) schedule_toggle(st, true);
    }

    std::shared_ptr<bool> alive;
    if (config.membership_churn) {
      alive = std::make_shared<bool>(true);
      schedule_churn(sid, alive);
    }

    const double hold = config.traffic.holding_time(rng);
    des.schedule_in(hold, [&, sid, st, alive] {
      maybe_snapshot();
      advance_area(des.now());
      if (alive) *alive = false;
      const u32 live = resolve(sid);
      if (manager.contains(live)) {
        const u32 final_size =
            static_cast<u32>(manager.members_of(live).size());
        // Route the close through the wait queue so a departure can admit
        // a displaced session; with an empty queue this is exactly
        // manager.close (no RNG consumed).
        const auto served = wait.close(live, rng);
        busy_ports -= final_size;
        if (recovery) note_recovered(recovery->absorb(served, des.now()));
      } else if (recovery) {
        // Interrupted and still unrecovered (waiting or between retries):
        // the caller's holding time ran out, so the recovery expires.
        recovery->on_origin_departed(live, des.now());
      }
      if (st) {
        st->alive = false;
        const double now = des.now();
        if (now >= config.warmup) {
          st->weighted_speakers += st->talking * (now - st->last_change);
          st->observed_time += now - st->last_change;
        }
        if (st->observed_time > 0.0)
          speakers.add(st->weighted_speakers / st->observed_time);
      }
    });
  };

  std::function<void()> arrival = [&] {
    maybe_snapshot();
    advance_area(des.now());
    if (config.arrival_burst <= 1) {
      // Classic path: one request per event, byte-identical (RNG draws and
      // all) to the pre-batching simulator.
      const u32 size = config.traffic.conference_size(rng);
      const auto [outcome, session] = manager.open(size, rng);
      if (outcome == conf::OpenResult::kAccepted) on_accepted(size, *session);
    } else {
      // Bursty signalling: the whole same-timestamp burst goes through one
      // open_batch pass (canonical descending-size order), then follow-up
      // wiring runs in arrival order over the accepted subset.
      std::vector<u32> sizes(config.arrival_burst);
      for (u32& s : sizes) s = config.traffic.conference_size(rng);
      const auto results = manager.open_batch(sizes, rng);
      for (std::size_t i = 0; i < sizes.size(); ++i)
        if (results[i].first == conf::OpenResult::kAccepted)
          on_accepted(sizes[i], *results[i].second);
    }
    des.schedule_in(config.traffic.next_interarrival(rng), arrival);
  };
  des.schedule_in(config.traffic.next_interarrival(rng), arrival);

  // --- Periodic functional verification --------------------------------
  std::function<void()> verify = [&] {
    ++result.functional_checks;
    if (!network.verify_delivery()) result.functional_ok = false;
    des.schedule_in(config.verify_interval, verify);
  };
  if (config.verify_functional) des.schedule_in(config.verify_interval, verify);

  // --- Link-fault process ----------------------------------------------
  // Failures arrive as a Poisson stream over the healthy interstage links;
  // each failed link is repaired independently after an exponential MTTR.
  // Everything here (including the RNG draws) is gated on faults_on, so a
  // fault_rate == 0 run replays the exact zero-fault event stream.
  std::function<void(conf::RecoveryCoordinator::PendingRetry)> schedule_retry =
      [&](conf::RecoveryCoordinator::PendingRetry pending) {
        des.schedule_in(config.recovery.backoff_delay(pending.attempt),
                        [&, pending] {
                          maybe_snapshot();
                          advance_area(des.now());
                          const auto outcome =
                              recovery->retry(pending, des.now(), rng);
                          if (outcome.recovered)
                            note_recovered({*outcome.recovered});
                          if (outcome.again) schedule_retry(*outcome.again);
                        });
      };

  std::function<void(u32, u32)> repair_event = [&](u32 level, u32 row) {
    maybe_snapshot();
    advance_area(des.now());
    const auto impact = recovery->repair_link(level, row, des.now(), rng);
    note_recovered(impact.recovered);
    refresh_degraded();
  };

  std::function<void()> fault_event = [&] {
    maybe_snapshot();
    advance_area(des.now());
    const u32 n = network.n();
    const u32 N = network.size();
    // Sample a healthy interstage link (levels 1..n-1); bail out when
    // nearly everything is already down rather than spinning.
    bool found = false;
    u32 level = 0;
    u32 row = 0;
    for (int probes = 0; probes < 64 && !found; ++probes) {
      level = 1 + static_cast<u32>(rng.below(n - 1));
      row = static_cast<u32>(rng.below(N));
      found = !network.link_faulty(level, row);
    }
    if (found) {
      const auto impact = recovery->fail_link(level, row, des.now(), rng);
      for (u32 size : impact.torn_sizes) busy_ports -= size;
      note_recovered(impact.recovered);
      for (const auto& pending : impact.retries) schedule_retry(pending);
      refresh_degraded();
      des.schedule_in(rng.exponential(config.repair_rate),
                      [&, level, row] { repair_event(level, row); });
    }
    des.schedule_in(rng.exponential(config.fault_rate), fault_event);
  };
  if (faults_on)
    des.schedule_in(rng.exponential(config.fault_rate), fault_event);

  des.run_until(config.duration);
  maybe_snapshot();
  advance_area(config.duration);

  // --- Reduce -----------------------------------------------------------
  const conf::SessionStats total = manager.stats();
  result.stats.attempts = total.attempts - warm_start.attempts;
  result.stats.accepted = total.accepted - warm_start.accepted;
  result.stats.blocked_placement =
      total.blocked_placement - warm_start.blocked_placement;
  result.stats.blocked_capacity =
      total.blocked_capacity - warm_start.blocked_capacity;
  result.stats.blocked_fault = total.blocked_fault - warm_start.blocked_fault;
  result.stats.interrupted = total.interrupted - warm_start.interrupted;
  result.blocking_probability = result.stats.blocking_probability();

  const double observed = config.duration - config.warmup;
  result.mean_active_sessions = session_area / observed;
  result.mean_busy_ports = port_area / observed;
  result.littles_law_estimate =
      (static_cast<double>(result.stats.accepted) / observed) *
      config.traffic.mean_holding;
  result.session_stages = util::summarize(stages);
  result.speaker_concurrency = util::summarize(speakers);
  result.events = des.events_processed();
  result.joins = total.joins;
  result.joins_blocked = total.joins_blocked;
  result.leaves = total.leaves;
  if (recovery) {
    const conf::RecoveryStats& rs = recovery->stats();
    result.link_failures = rs.link_failures;
    result.link_repairs = rs.link_repairs;
    result.sessions_interrupted = rs.sessions_interrupted;
    result.sessions_recovered = rs.recovered();
    result.sessions_dropped = rs.dropped;
    result.sessions_expired = rs.expired;
    result.recovery_pending = recovery->pending();
    result.dropped_session_rate =
        rs.sessions_interrupted == 0
            ? 0.0
            : static_cast<double>(rs.dropped) /
                  static_cast<double>(rs.sessions_interrupted);
    advance_degraded(config.duration);
    result.degraded_fraction = degraded_area / observed;
    result.recovery_latency = util::summarize(latency_stats);
  }
  return result;
}

}  // namespace confnet::sim
