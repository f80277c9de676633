#include "conference/recovery.hpp"

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace confnet::conf {

namespace {

/// Shared observability handles, resolved lazily so fault-free runs never
/// touch the registry from this translation unit.
struct RecoveryMetrics {
  obs::Counter& link_failures =
      obs::Registry::global().counter("fault", "link_failures");
  obs::Counter& link_repairs =
      obs::Registry::global().counter("fault", "link_repairs");
  obs::Counter& interrupted =
      obs::Registry::global().counter("conf", "recovery_interrupted");
  obs::Counter& recovered =
      obs::Registry::global().counter("conf", "recovery_recovered");
  obs::Counter& retries =
      obs::Registry::global().counter("conf", "recovery_retries");
  obs::Counter& dropped =
      obs::Registry::global().counter("conf", "recovery_dropped");
  obs::Counter& expired =
      obs::Registry::global().counter("conf", "recovery_expired");
  obs::Histogram& latency = obs::Registry::global().histogram(
      "conf", "recovery_latency", obs::linear_buckets(0.25, 0.25, 40));

  static RecoveryMetrics& get() {
    static RecoveryMetrics m;
    return m;
  }
};

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

RecoveryCoordinator::RecoveryCoordinator(WaitQueueManager& wait,
                                         RecoveryPolicy policy)
    : wait_(wait), policy_(policy) {
  expects(wait_.sessions().network().supports_faults(),
          "recovery needs a fault-capable network design");
  expects(policy_.base_backoff > 0.0 && policy_.backoff_multiplier >= 1.0 &&
              policy_.max_backoff >= policy_.base_backoff,
          "malformed recovery backoff policy");
}

void RecoveryCoordinator::note_recovered(double now, double failed_at) {
  RecoveryMetrics& m = RecoveryMetrics::get();
  m.recovered.add();
  m.latency.observe(now - failed_at);
}

void RecoveryCoordinator::admit(u32 origin, u32 size, double failed_at,
                                u32 attempt, double now,
                                std::vector<Recovered>& recovered,
                                std::vector<PendingRetry>& retries,
                                util::Rng& rng) {
  RecoveryMetrics& m = RecoveryMetrics::get();
  const auto result = wait_.request(size, rng);
  switch (result.outcome) {
    case RequestOutcome::kServed:
      if (attempt == 0)
        ++stats_.recovered_inplace;
      else
        ++stats_.recovered_after_retry;
      pending_.erase(origin);
      recovered.push_back(Recovered{origin, *result.session, size, failed_at,
                                    attempt});
      note_recovered(now, failed_at);
      obs::trace_emit("fault", "session_recovered", size);
      return;
    case RequestOutcome::kQueued:
      pending_[origin] =
          Pending{result.ticket->id, true, size, failed_at, attempt};
      ticket_origin_[result.ticket->id] = origin;
      obs::trace_emit("fault", "session_waiting", size);
      return;
    case RequestOutcome::kRejected:
      if (attempt >= policy_.max_retries) {
        pending_.erase(origin);
        ++stats_.dropped;
        m.dropped.add();
        obs::trace_emit("fault", "session_dropped", size);
        return;
      }
      pending_[origin] = Pending{0, false, size, failed_at, attempt + 1};
      retries.push_back(PendingRetry{origin, size, failed_at, attempt + 1});
      obs::trace_emit("fault", "session_retry_scheduled", size);
      return;
  }
}

RecoveryCoordinator::FailureImpact RecoveryCoordinator::fail_link(
    u32 level, u32 row, double now, util::Rng& rng) {
  FailureImpact impact;
  ConferenceNetworkBase& net = wait_.sessions().network();
  if (net.link_faulty(level, row)) return impact;  // idempotent
  RecoveryMetrics& m = RecoveryMetrics::get();
  const std::vector<u32> handles = net.fail_link(level, row);
  ++stats_.link_failures;
  m.link_failures.add();
  obs::trace_emit("fault", "link_failed", row);
  impact.torn_down = wait_.sessions().sessions_using(handles);

  // Tear every victim down first so the repacks below see all the freed
  // ports and links at once.
  impact.torn_sizes.reserve(impact.torn_down.size());
  for (u32 sid : impact.torn_down) {
    impact.torn_sizes.push_back(
        static_cast<u32>(wait_.sessions().members_of(sid).size()));
    wait_.sessions().interrupt(sid);
    ++stats_.sessions_interrupted;
    m.interrupted.add();
  }
  for (std::size_t i = 0; i < impact.torn_down.size(); ++i)
    admit(impact.torn_down[i], impact.torn_sizes[i], now, 0, now,
          impact.recovered, impact.retries, rng);
  CONFNET_AUDIT_HOOK(audit::check_recovery(*this));
  return impact;
}

RecoveryCoordinator::RepairImpact RecoveryCoordinator::repair_link(
    u32 level, u32 row, double now, util::Rng& rng) {
  RepairImpact impact;
  ConferenceNetworkBase& net = wait_.sessions().network();
  if (!net.link_faulty(level, row)) return impact;  // idempotent
  RecoveryMetrics& m = RecoveryMetrics::get();
  net.repair_link(level, row);
  ++stats_.link_repairs;
  m.link_repairs.add();
  obs::trace_emit("fault", "link_repaired", row);
  impact.served = wait_.drain(rng);
  impact.recovered = absorb(impact.served, now);
  CONFNET_AUDIT_HOOK(audit::check_recovery(*this));
  return impact;
}

RecoveryCoordinator::RetryOutcome RecoveryCoordinator::retry(
    const PendingRetry& pending, double now, util::Rng& rng) {
  RetryOutcome outcome;
  const auto it = pending_.find(pending.origin);
  if (it == pending_.end() || it->second.queued) {
    // The origin departed (expired, already counted) or was served through
    // the queue between scheduling and firing; nothing to do.
    return outcome;
  }
  RecoveryMetrics& m = RecoveryMetrics::get();
  ++stats_.retries;
  m.retries.add();
  std::vector<Recovered> recovered;
  std::vector<PendingRetry> retries;
  admit(pending.origin, pending.size, pending.failed_at, pending.attempt, now,
        recovered, retries, rng);
  if (!recovered.empty()) outcome.recovered = recovered.front();
  if (!retries.empty()) outcome.again = retries.front();
  if (!outcome.recovered && !outcome.again &&
      pending_.find(pending.origin) == pending_.end())
    outcome.dropped = true;
  CONFNET_AUDIT_HOOK(audit::check_recovery(*this));
  return outcome;
}

std::vector<RecoveryCoordinator::Recovered> RecoveryCoordinator::absorb(
    const std::vector<WaitQueueManager::ServedTicket>& served, double now) {
  std::vector<Recovered> recovered;
  for (const auto& ticket : served) {
    const auto to = ticket_origin_.find(ticket.ticket.id);
    if (to == ticket_origin_.end()) continue;  // not a recovery waiter
    const u32 origin = to->second;
    const auto pe = pending_.find(origin);
    expects(pe != pending_.end() && pe->second.queued,
            "recovery ticket served without a queued pending record");
    const Pending p = pe->second;
    ticket_origin_.erase(to);
    pending_.erase(pe);
    ++stats_.recovered_after_wait;
    recovered.push_back(
        Recovered{origin, ticket.session, p.size, p.failed_at, p.attempt});
    note_recovered(now, p.failed_at);
    obs::trace_emit("fault", "session_recovered", p.size);
  }
  if (!recovered.empty()) CONFNET_AUDIT_HOOK(audit::check_recovery(*this));
  return recovered;
}

bool RecoveryCoordinator::on_origin_departed(u32 origin, double now) {
  (void)now;
  const auto it = pending_.find(origin);
  if (it == pending_.end()) return false;
  RecoveryMetrics& m = RecoveryMetrics::get();
  if (it->second.queued) {
    const bool removed = wait_.abandon(
        WaitQueueManager::Ticket{it->second.ticket, it->second.size});
    expects(removed, "pending recovery ticket missing from the wait queue");
    ticket_origin_.erase(it->second.ticket);
  }
  pending_.erase(it);
  ++stats_.expired;
  m.expired.add();
  obs::trace_emit("fault", "session_expired", origin);
  CONFNET_AUDIT_HOOK(audit::check_recovery(*this));
  return true;
}

}  // namespace confnet::conf

namespace confnet::audit {

void check_recovery(const conf::RecoveryCoordinator& recovery) {
  constexpr std::string_view kSub = "recovery";
  const conf::RecoveryStats& s = recovery.stats_;
  // Conservation: at event boundaries every interrupted session is in
  // exactly one terminal bucket or still pending.
  require(s.sessions_interrupted == s.recovered() + s.dropped + s.expired +
                                        recovery.pending_.size(),
          kSub, "interrupted sessions leak from the recovery accounting");
  require(s.recovered_after_retry + s.dropped <= s.retries + s.dropped, kSub,
          "retry outcomes exceed retry attempts");
  // Queued pending records and the ticket index are a bijection.
  u64 queued = 0;
  for (const auto& [origin, p] : recovery.pending_) {
    if (!p.queued) continue;
    ++queued;
    const auto it = recovery.ticket_origin_.find(p.ticket);
    require(it != recovery.ticket_origin_.end() && it->second == origin, kSub,
            "queued pending record missing from the ticket index");
  }
  require(queued == recovery.ticket_origin_.size(), kSub,
          "ticket index holds entries without a queued pending record");
}

}  // namespace confnet::audit
