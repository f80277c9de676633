#include "conference/recovery.hpp"

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace confnet::conf {

namespace {

/// Fold one control plane's lifetime counts into the process-wide
/// registry. A control plane that never saw a fault leaves it untouched.
void fold_into_registry(const RecoveryStats& s) {
  if (s == RecoveryStats{}) return;
  obs::Registry& reg = obs::Registry::global();
  reg.counter("fault", "link_failures").add(s.link_failures);
  reg.counter("fault", "link_repairs").add(s.link_repairs);
  reg.counter("conf", "recovery_interrupted").add(s.sessions_interrupted);
  reg.counter("conf", "recovery_recovered").add(s.recovered());
  reg.counter("conf", "recovery_retries").add(s.retries);
  reg.counter("conf", "recovery_dropped").add(s.dropped);
  reg.counter("conf", "recovery_expired").add(s.expired);
}

}  // namespace

void RecoveryStats::merge(const RecoveryStats& other) noexcept {
  link_failures += other.link_failures;
  link_repairs += other.link_repairs;
  sessions_interrupted += other.sessions_interrupted;
  recovered_inplace += other.recovered_inplace;
  recovered_after_wait += other.recovered_after_wait;
  recovered_after_retry += other.recovered_after_retry;
  retries += other.retries;
  dropped += other.dropped;
  expired += other.expired;
}

ControlPlane::ControlPlane(ConferenceNetworkBase& network,
                           RecoveryPolicy recovery, PlacementPolicy placement,
                           std::size_t wait_capacity, bool allow_bypass,
                           PlacerBackend backend)
    : wait_(network, placement, wait_capacity, allow_bypass, backend),
      policy_(recovery) {
  expects(policy_.base_backoff > 0.0 && policy_.backoff_multiplier >= 1.0 &&
              policy_.max_backoff >= policy_.base_backoff,
          "malformed recovery backoff policy");
}

ControlPlane::~ControlPlane() { fold_into_registry(stats_); }

void ControlPlane::note_recovered(u32 replacement, const Recovered& r,
                                  Effects& fx) {
  wait_.sessions().reinstate(replacement, r.session);
  pending_.erase(r.session);
  fx.recovered.push_back(r);
  obs::trace_emit("fault", "session_recovered", r.size);
}

void ControlPlane::admit(u32 origin, u32 size, double failed_at, u32 attempt,
                         double now, Effects& fx, util::Rng& rng) {
  const auto result = wait_.request(size, rng);
  switch (result.outcome) {
    case RequestOutcome::kServed:
      ++(attempt == 0 ? stats_.recovered_inplace
                      : stats_.recovered_after_retry);
      note_recovered(*result.session,
                     Recovered{origin, size, failed_at, attempt}, fx);
      return;
    case RequestOutcome::kQueued:
      pending_[origin] =
          Pending{size, failed_at, attempt, true, result.ticket->id, {}};
      ticket_origin_[result.ticket->id] = origin;
      obs::trace_emit("fault", "session_waiting", size);
      return;
    case RequestOutcome::kRejected:
      if (attempt >= policy_.max_retries) {
        pending_.erase(origin);
        ++stats_.dropped;
        obs::trace_emit("fault", "session_dropped", size);
        return;
      }
      const Slot slot{now + policy_.backoff_delay(attempt + 1), next_slot_++};
      pending_[origin] = Pending{size, failed_at, attempt + 1, false, 0, slot};
      agenda_.emplace(slot, origin);
      fx.scheduled.push_back(slot.first);
      obs::trace_emit("fault", "session_retry_scheduled", size);
      return;
  }
}

void ControlPlane::absorb(
    const std::vector<WaitQueueManager::ServedTicket>& served, Effects& fx) {
  for (const auto& ticket : served) {
    const auto to = ticket_origin_.find(ticket.ticket.id);
    if (to == ticket_origin_.end()) {  // the caller's own waiter
      fx.served.push_back(ticket);
      continue;
    }
    const u32 origin = to->second;
    const auto pe = pending_.find(origin);
    expects(pe != pending_.end() && pe->second.queued,
            "recovery ticket served without a queued pending record");
    const Pending& p = pe->second;
    ticket_origin_.erase(to);
    ++stats_.recovered_after_wait;
    note_recovered(ticket.session,
                   Recovered{origin, p.size, p.failed_at, p.attempt}, fx);
  }
}

ControlPlane::Effects ControlPlane::close(u32 session, util::Rng& rng) {
  Effects fx;
  if (wait_.sessions().contains(session)) {
    absorb(wait_.close(session, rng), fx);
  } else if (const auto it = pending_.find(session); it != pending_.end()) {
    // The caller gave up on an interrupted session still on the recovery
    // path: withdraw its ticket or its agenda entry.
    if (it->second.queued) {
      const bool removed = wait_.abandon(
          WaitQueueManager::Ticket{it->second.ticket, it->second.size});
      expects(removed, "pending recovery ticket missing from the wait queue");
      ticket_origin_.erase(it->second.ticket);
    } else {
      agenda_.erase(it->second.slot);
    }
    pending_.erase(it);
    ++stats_.expired;
    obs::trace_emit("fault", "session_expired", session);
  } else {
    return fx;
  }
  CONFNET_AUDIT_HOOK(audit::check_recovery(*this));
  return fx;
}

ControlPlane::Effects ControlPlane::fail_link(u32 level, u32 row, double now,
                                              util::Rng& rng) {
  Effects fx;
  ConferenceNetworkBase& net = wait_.sessions().network();
  expects(net.supports_faults(),
          "recovery needs a fault-capable network design");
  if (net.link_faulty(level, row)) return fx;  // idempotent
  const std::vector<u32> handles = net.fail_link(level, row);
  ++stats_.link_failures;
  obs::trace_emit("fault", "link_failed", row);
  fx.torn_down = wait_.sessions().sessions_using(handles);

  // Tear every victim down first so the repacks below see all the freed
  // ports and links at once.
  std::vector<u32> sizes;
  sizes.reserve(fx.torn_down.size());
  for (u32 sid : fx.torn_down) {
    sizes.push_back(static_cast<u32>(wait_.sessions().members_of(sid).size()));
    wait_.sessions().interrupt(sid);
    ++stats_.sessions_interrupted;
  }
  // A victim that finds waiters ahead of it queues behind them without
  // trying, so the room the teardown freed must still reach the queue head.
  // With no earlier waiters the head is a victim that just tried it.
  const bool behind_waiters = wait_.queue_length() > 0;
  for (std::size_t i = 0; i < fx.torn_down.size(); ++i)
    admit(fx.torn_down[i], sizes[i], now, 0, now, fx, rng);
  if (behind_waiters) absorb(wait_.drain(rng), fx);
  CONFNET_AUDIT_HOOK(audit::check_recovery(*this));
  return fx;
}

ControlPlane::Effects ControlPlane::repair_link(u32 level, u32 row,
                                                util::Rng& rng) {
  Effects fx;
  ConferenceNetworkBase& net = wait_.sessions().network();
  if (!net.link_faulty(level, row)) return fx;  // idempotent
  net.repair_link(level, row);
  ++stats_.link_repairs;
  obs::trace_emit("fault", "link_repaired", row);
  absorb(wait_.drain(rng), fx);
  CONFNET_AUDIT_HOOK(audit::check_recovery(*this));
  return fx;
}

ControlPlane::Effects ControlPlane::run_due(double horizon, util::Rng& rng) {
  Effects fx;
  while (!agenda_.empty() && agenda_.begin()->first.first <= horizon) {
    const auto [slot, origin] = *agenda_.begin();
    agenda_.erase(agenda_.begin());
    const Pending p = pending_.at(origin);
    ++stats_.retries;
    admit(origin, p.size, p.failed_at, p.attempt, slot.first, fx, rng);
  }
  CONFNET_AUDIT_HOOK(audit::check_recovery(*this));
  return fx;
}

std::optional<double> ControlPlane::next_due() const {
  if (agenda_.empty()) return std::nullopt;
  return agenda_.begin()->first.first;
}

}  // namespace confnet::conf

namespace confnet::audit {

void check_recovery(const conf::ControlPlane& plane) {
  constexpr std::string_view kSub = "recovery";
  const conf::RecoveryStats& s = plane.stats_;
  // Conservation: at event boundaries every interrupted session is in
  // exactly one terminal bucket or still pending.
  require(s.sessions_interrupted ==
              s.recovered() + s.dropped + s.expired + plane.pending_.size(),
          kSub, "interrupted sessions leak from the recovery accounting");
  require(s.recovered_after_retry <= s.retries, kSub,
          "more recoveries on retry than retry attempts");
  // A pending record either waits on a ticket or sits on the agenda: the
  // queued records and the ticket index are a bijection, and so are the
  // between-retries records and the agenda.
  u64 queued = 0;
  for (const auto& [origin, p] : plane.pending_) {
    require(!plane.wait_.sessions().contains(origin), kSub,
            "a victim pending recovery is live under its id");
    if (p.queued) {
      ++queued;
      const auto it = plane.ticket_origin_.find(p.ticket);
      require(it != plane.ticket_origin_.end() && it->second == origin, kSub,
              "queued pending record missing from the ticket index");
    } else {
      const auto it = plane.agenda_.find(p.slot);
      require(it != plane.agenda_.end() && it->second == origin, kSub,
              "between-retries pending record missing from the agenda");
    }
  }
  require(queued == plane.ticket_origin_.size(), kSub,
          "ticket index holds entries without a queued pending record");
  for (const auto& [slot, origin] : plane.agenda_) {
    const auto it = plane.pending_.find(origin);
    require(it != plane.pending_.end() && !it->second.queued &&
                it->second.slot == slot,
            kSub, "agenda entry names an origin that departed or recovered");
  }
}

}  // namespace confnet::audit
