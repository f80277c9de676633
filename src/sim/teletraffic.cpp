#include "sim/teletraffic.hpp"

#include <vector>

#include "min/faults.hpp"
#include "sim/des.hpp"
#include "util/error.hpp"
#include "util/trace.hpp"

namespace confnet::sim {

namespace {

/// Hold-queue slots for the sessions a link fault displaces.
constexpr std::size_t kRecoveryQueueSlots = 16;

/// The driver's events. EventArgs::a is the session of a departure, a
/// toggle (b = 1: a member starts talking) or a churn step; a repair's
/// link is (level a, row b). A wake runs the recovery retries due by now.
enum EventKind : std::uint32_t {
  kArrival, kDeparture, kToggle, kChurn, kVerify, kFault, kRepair, kWake,
};

/// Talk-spurt state of one session, indexed by session id. Ids are never
/// reused, so an entry dies once, at its session's departure.
struct SpurtState {
  bool alive = false;
  u32 talking = 0;
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
  // The control plane's wait queue holds only displaced sessions; regular
  // arrivals keep calling manager.open directly, and with fault_rate == 0
  // the queue stays empty forever, so the zero-fault event stream (and its
  // RNG consumption) is identical to a manager-only run.
  const bool faults_on = config.fault_rate > 0.0;
  expects(!faults_on || (network.supports_faults() && network.n() >= 2),
          "fault_rate > 0 needs a fault-capable design with interstage links");
  conf::ControlPlane control(network, config.recovery, config.policy,
                             faults_on ? kRecoveryQueueSlots : 0);
  conf::SessionManager& manager = control.wait().sessions();
  TalkSpurtProcess spurts(config.mean_talk, config.mean_silence);

  TeletrafficResult result;
  result.offered_erlangs = config.traffic.offered_erlangs();

  // Time-weighted occupancy accounting (post-warmup).
  double last_t = config.warmup;
  double session_area = 0.0;
  double port_area = 0.0;
  conf::SessionStats warm_start;  // stats snapshot at warmup end
  bool warm_snapshotted = false;
  util::RunningStats stages;
  util::RunningStats speakers;

  // Each event first closes the warmup window (once) and the areas to now.
  const auto observe = [&] {
    const double now = des.now();
    if (!warm_snapshotted && now >= config.warmup) {
      warm_start = manager.stats();
      warm_snapshotted = true;
      last_t = now;
      session_area = port_area = 0.0;
    }
    if (now <= last_t) return;
    session_area += manager.active_sessions() * (now - last_t);
    port_area += static_cast<double>(manager.busy_ports()) * (now - last_t);
    last_t = now;
  };

  // --- Fault-recovery bookkeeping --------------------------------------
  // A recovered session is live again under its own id, so the events
  // scheduled against it keep finding it. Every control-plane call reports
  // its recoveries and the retry due times it scheduled; each due time
  // gets one wake event that runs the agenda up to it.
  util::RunningStats latency_stats;
  const auto note = [&](const conf::ControlPlane::Effects& fx) {
    for (const auto& r : fx.recovered)
      latency_stats.add(des.now() - r.failed_at);
    for (const double due : fx.scheduled) des.schedule(due, kWake);
  };

  // Time-weighted disconnected-pair fraction while links are down
  // (post-warmup, like the occupancy areas): close the area to now, then
  // take the fabric's new level.
  double degraded_area = 0.0;
  double degraded_level = 0.0;
  double degraded_last = config.warmup;
  const auto refresh_degraded = [&] {
    if (des.now() > degraded_last) {  // degraded_last >= warmup throughout
      degraded_area += degraded_level * (des.now() - degraded_last);
      degraded_last = des.now();
    }
    degraded_level = 1.0 - min::connectivity(network.kind(), network.n(),
                                             *network.faults());
  };

  // --- Talk-spurt machinery -------------------------------------------
  std::vector<SpurtState> talk;  // by session id
  const auto schedule_toggle = [&](u32 sid, bool to_talking) {
    // Wait out the state being left: a silence before talking starts,
    // a talk spurt before it ends.
    des.schedule_in(spurts.next_duration(!to_talking, rng), kToggle,
                    {.a = sid, .b = to_talking});
  };
  // Close the speaker-time area of `st` up to now.
  const auto spurt_area = [&](SpurtState& st) {
    const double now = des.now();
    if (now >= config.warmup) {
      st.weighted_speakers += st.talking * (now - st.last_change);
      st.observed_time += now - st.last_change;
    }
    st.last_change = now;
  };

  // --- Membership churn --------------------------------------------------
  // Per live session, joins and leaves arrive as independent Poisson
  // processes. The chain ends at the first event that finds its session
  // not live: departed, or interrupted (if it is recovered later, it has
  // the member count it had at the fault and no churn chain).
  const auto schedule_churn = [&](u32 sid) {
    const double total = config.join_rate + config.leave_rate;
    if (total <= 0.0) return;
    des.schedule_in(rng.exponential(total), kChurn, {.a = sid});
  };

  // Each process schedules its first event; every later one is scheduled by
  // the event before it, in the switch below.
  des.schedule_in(config.traffic.next_interarrival(rng), kArrival);
  if (config.verify_functional) des.schedule_in(config.verify_interval, kVerify);
  // Link faults arrive as a Poisson stream over the healthy interstage
  // links; each failed link is repaired independently after an exponential
  // MTTR. Everything here (including the RNG draws) is gated on faults_on,
  // so a fault_rate == 0 run replays the exact zero-fault event stream.
  if (faults_on) des.schedule_in(rng.exponential(config.fault_rate), kFault);

  des.run_until(config.duration, [&](const Event& ev) {
    const u32 sid = ev.args.a;
    switch (static_cast<EventKind>(ev.kind)) {
      case kArrival: {
        observe();
        const u32 size = config.traffic.conference_size(rng);
        const auto [outcome, session] = manager.open(size, rng);
        // An accepted open starts its stage stats, talk spurts, churn
        // chain and holding time.
        if (outcome == conf::OpenResult::kAccepted) {
          const u32 id = *session;
          if (des.now() >= config.warmup)
            stages.add(network.stages_for(manager.handle_of(id)));
          if (config.talk_spurts) {
            if (id >= talk.size()) talk.resize(id + 1);
            talk[id] = SpurtState{.alive = true, .last_change = des.now()};
            for (u32 m = 0; m < size; ++m) schedule_toggle(id, true);
          }
          if (config.membership_churn) schedule_churn(id);
          des.schedule_in(config.traffic.holding_time(rng), kDeparture,
                          {.a = id});
        }
        des.schedule_in(config.traffic.next_interarrival(rng), kArrival);
        break;
      }
      case kDeparture:
        observe();
        // The close goes through the wait queue so a departure can admit a
        // displaced session (with an empty queue this is exactly
        // manager.close, no RNG consumed). A session interrupted and still
        // unrecovered instead has its recovery expire.
        note(control.close(sid, rng));
        if (config.talk_spurts) {
          SpurtState& st = talk[sid];
          st.alive = false;
          spurt_area(st);
          if (st.observed_time > 0.0)
            speakers.add(st.weighted_speakers / st.observed_time);
        }
        break;
      case kToggle: {
        SpurtState& st = talk[sid];
        if (!st.alive) break;
        spurt_area(st);
        const bool to_talking = ev.args.b != 0;
        expects(to_talking || st.talking > 0, "talk spurt underflow");
        st.talking = to_talking ? st.talking + 1 : st.talking - 1;
        schedule_toggle(sid, !to_talking);
        break;
      }
      case kChurn: {
        if (!manager.contains(sid)) break;
        observe();  // a join or leave moves busy_ports()
        const bool join =
            rng.uniform() * (config.join_rate + config.leave_rate) <
            config.join_rate;
        if (join) {
          (void)manager.join(sid, rng);
        } else {
          const auto& members = manager.members_of(sid);
          if (members.size() > 2)
            (void)manager.leave(sid, members[rng.below(members.size())]);
        }
        schedule_churn(sid);
        break;
      }
      case kVerify:
        ++result.functional_checks;
        if (!network.verify_delivery()) result.functional_ok = false;
        des.schedule_in(config.verify_interval, kVerify);
        break;
      case kFault: {
        observe();
        // Sample a healthy interstage link (levels 1..n-1); bail out when
        // nearly everything is already down rather than spinning.
        bool found = false;
        u32 level = 0;
        u32 row = 0;
        for (int probes = 0; probes < 64 && !found; ++probes) {
          level = 1 + static_cast<u32>(rng.below(network.n() - 1));
          row = static_cast<u32>(rng.below(network.size()));
          found = !network.link_faulty(level, row);
        }
        if (found) {
          note(control.fail_link(level, row, des.now(), rng));
          refresh_degraded();
          des.schedule_in(rng.exponential(config.repair_rate), kRepair,
                          {.a = level, .b = row});
        }
        des.schedule_in(rng.exponential(config.fault_rate), kFault);
        break;
      }
      case kRepair:
        observe();
        note(control.repair_link(ev.args.a, ev.args.b, rng));
        refresh_degraded();
        break;
      case kWake:
        observe();
        note(control.run_due(des.now(), rng));
        break;
    }
    return true;
  });
  observe();  // the run ended at the horizon: the clock reads duration

  // --- Reduce -----------------------------------------------------------
  const conf::SessionStats total = manager.stats();
  result.stats = total.since(warm_start);
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
  if (faults_on) {
    const conf::RecoveryStats& rs = control.stats();
    result.recovery = rs;
    result.recovery_pending = control.pending();
    result.dropped_session_rate =
        rs.sessions_interrupted == 0
            ? 0.0
            : static_cast<double>(rs.dropped) /
                  static_cast<double>(rs.sessions_interrupted);
    refresh_degraded();
    result.degraded_fraction = degraded_area / observed;
    result.recovery_latency = util::summarize(latency_stats);
  }
  return result;
}

}  // namespace confnet::sim
