#include "conference/waitqueue.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace confnet::conf {

namespace {

/// Fold one manager's lifetime counts into the process-wide registry. A
/// manager that saw no request leaves the registry untouched.
void fold_into_registry(const WaitStats& s) {
  if (s == WaitStats{}) return;
  obs::Registry& reg = obs::Registry::global();
  reg.counter("conf", "wait_served_immediately").add(s.served_immediately);
  reg.counter("conf", "wait_served_after_wait").add(s.served_after_wait);
  reg.counter("conf", "wait_rejected").add(s.rejected);
  reg.counter("conf", "wait_abandoned").add(s.abandoned);
}

}  // namespace

WaitQueueManager::WaitQueueManager(ConferenceNetworkBase& network,
                                   PlacementPolicy policy,
                                   std::size_t queue_capacity,
                                   bool allow_bypass, PlacerBackend backend)
    : manager_(network, policy, backend),
      capacity_(queue_capacity),
      allow_bypass_(allow_bypass) {}

WaitQueueManager::~WaitQueueManager() { fold_into_registry(stats_); }

WaitQueueManager::RequestResult WaitQueueManager::request(u32 size,
                                                          util::Rng& rng) {
  // FIFO fairness: while anyone waits, new arrivals go behind them unless
  // bypass is enabled (then they may still try immediately).
  const bool must_queue = !queue_.empty() && !allow_bypass_;
  if (!must_queue) {
    const auto [outcome, session] = manager_.open(size, rng);
    if (outcome == OpenResult::kAccepted) {
      ++stats_.served_immediately;
      obs::trace_emit("wait", "served_immediately", size);
      return {RequestOutcome::kServed, session, std::nullopt};
    }
  }
  if (queue_.size() >= capacity_) {
    ++stats_.rejected;
    obs::trace_emit("wait", "rejected", size);
    return {RequestOutcome::kRejected, std::nullopt, std::nullopt};
  }
  const Ticket ticket{next_ticket_++, size};
  queue_.push_back(ticket);
  stats_.max_queue_length = std::max(stats_.max_queue_length,
                                     static_cast<u64>(queue_.size()));
  obs::trace_emit("wait", "enqueued", size);
  CONFNET_AUDIT_HOOK(audit::check_waitqueue(*this));
  return {RequestOutcome::kQueued, std::nullopt, ticket};
}

std::vector<WaitQueueManager::ServedTicket> WaitQueueManager::close(
    u32 session_id, util::Rng& rng) {
  manager_.close(session_id);
  auto served = process_queue(rng);
  CONFNET_AUDIT_HOOK(audit::check_waitqueue(*this));
  return served;
}

// static_check: allow(audit-hook) callers close()/drain() audit the
// composite operation after the queue pass completes
std::vector<WaitQueueManager::ServedTicket> WaitQueueManager::process_queue(
    util::Rng& rng) {
  // One forward pass, gated by the placer's free-capacity watermark:
  // placeable(size) == false means no aligned block (or no port) is free,
  // and open() could at most share a region; a queued ticket waits for an
  // aligned block, so the pass skips it without consuming RNG draws. The
  // old restart-from-the-front loop rescanned O(queue) tickets per
  // admission; this pass visits each ticket once, and
  // an admission's freed capacity is visible to the very next ticket
  // because the watermark reads live placer state.
  std::vector<ServedTicket> served;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (!manager_.placeable(it->size)) {
      if (!allow_bypass_) break;  // strict FIFO: head-of-line blocks
      ++it;
      continue;
    }
    const auto [outcome, session] = manager_.open(it->size, rng);
    if (outcome == OpenResult::kAccepted) {
      served.push_back(ServedTicket{*it, *session});
      ++stats_.served_after_wait;
      obs::trace_emit("wait", "served_after_wait", it->size);
      it = queue_.erase(it);
      continue;
    }
    // Placeable but blocked by fabric capacity or faults.
    if (!allow_bypass_) break;
    ++it;
  }
  return served;
}

std::vector<WaitQueueManager::ServedTicket> WaitQueueManager::drain(
    util::Rng& rng) {
  auto served = process_queue(rng);
  CONFNET_AUDIT_HOOK(audit::check_waitqueue(*this));
  return served;
}

bool WaitQueueManager::abandon(Ticket ticket) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->id == ticket.id) {
      queue_.erase(it);
      ++stats_.abandoned;
      obs::trace_emit("wait", "abandoned", ticket.size);
      CONFNET_AUDIT_HOOK(audit::check_waitqueue(*this));
      return true;
    }
  }
  return false;
}

}  // namespace confnet::conf

namespace confnet::audit {

void check_wait_stats(const conf::WaitStats& stats, u64 sessions_accepted) {
  constexpr std::string_view kSub = "waitqueue";
  // Every service went through an accepted SessionManager::open (callers
  // may also open sessions directly, so accepted can run ahead).
  require(stats.total_served() <= sessions_accepted, kSub,
          "more served tickets than accepted session opens");
}

void check_waitqueue(const conf::WaitQueueManager& manager) {
  std::vector<u64> ids;
  std::vector<conf::u32> sizes;
  ids.reserve(manager.queue_.size());
  sizes.reserve(manager.queue_.size());
  for (const auto& ticket : manager.queue_) {
    ids.push_back(ticket.id);
    sizes.push_back(ticket.size);
  }
  check_ticket_queue(ids, sizes, manager.next_ticket_, manager.capacity_);
  check_wait_stats(manager.stats_, manager.manager_.stats().accepted);
  require(manager.stats_.served_after_wait + manager.stats_.abandoned +
                  manager.queue_.size() <=
              manager.next_ticket_,
          "waitqueue", "ticket lifecycle counters exceed issued tickets");
  check_session_manager(manager.manager_);
}

}  // namespace confnet::audit
