// Wait-queue admission: instead of returning a busy signal, a blocked
// conference request can hold in a FIFO queue and be admitted when
// departures free ports or fabric links — the "please hold" front end of a
// conference service. Queueing is work-conserving with optional head-of-
// line bypass (a small later request may be admitted past a large stuck
// head when bypass is enabled). Under buddy placement only an arriving
// request takes SessionManager::open's shared step; a queued ticket waits
// for a free aligned block (SessionManager::placeable), so a later arrival
// (with bypass, or to an empty queue) may be admitted on a shared region
// while it waits.
#pragma once

#include <deque>
#include <optional>

#include "conference/session.hpp"

namespace confnet::conf {

enum class RequestOutcome : std::uint8_t {
  kServed,    // admitted immediately
  kQueued,    // waiting; watch for ServedTicket from process_queue()
  kRejected,  // queue full
};

/// Admission accounting: the only tally of these events. Folded once on
/// destruction into the `conf` subsystem of the obs::Registry
/// (`conf/wait_*` counters); a live manager is asked through wait_stats().
struct WaitStats {
  u64 served_immediately = 0;
  u64 served_after_wait = 0;  // never on a shared region (see above)
  u64 rejected = 0;
  u64 abandoned = 0;
  /// Deepest the queue has ever been (including the enqueued request).
  u64 max_queue_length = 0;

  [[nodiscard]] u64 total_served() const noexcept {
    return served_immediately + served_after_wait;
  }

  bool operator==(const WaitStats&) const = default;
};

class WaitQueueManager {
 public:
  /// `queue_capacity` = 0 disables queueing (pure loss system). `backend`
  /// is forwarded to the inner SessionManager's port placer.
  WaitQueueManager(ConferenceNetworkBase& network, PlacementPolicy policy,
                   std::size_t queue_capacity, bool allow_bypass = false,
                   PlacerBackend backend = PlacerBackend::kFast);
  /// Folds wait_stats() into the obs::Registry, once: not copyable or movable.
  ~WaitQueueManager();
  WaitQueueManager(const WaitQueueManager&) = delete;
  WaitQueueManager& operator=(const WaitQueueManager&) = delete;

  struct Ticket {
    u64 id;
    u32 size;
  };

  /// Request a conference of `size` members. On kServed, `session` holds
  /// the open session id; on kQueued, `ticket` identifies the waiter.
  struct RequestResult {
    RequestOutcome outcome;
    std::optional<u32> session;
    std::optional<Ticket> ticket;
  };
  [[nodiscard]] RequestResult request(u32 size, util::Rng& rng);

  /// A served waiter, reported by close()/process_queue().
  struct ServedTicket {
    Ticket ticket;
    u32 session;
  };

  /// Close an open session and admit as many waiters as now fit (FIFO,
  /// with optional bypass). Returns the served waiters in admission order.
  std::vector<ServedTicket> close(u32 session_id, util::Rng& rng);

  /// Remove a waiting ticket (caller gave up). False if it is no longer
  /// queued (already served or never existed).
  bool abandon(Ticket ticket);

  /// Admit as many waiters as now fit without closing anything — the hook
  /// for capacity returning from outside the queue (e.g. a link repair).
  std::vector<ServedTicket> drain(util::Rng& rng);

  [[nodiscard]] std::size_t queue_length() const noexcept {
    return queue_.size();
  }
  [[nodiscard]] const WaitStats& wait_stats() const noexcept { return stats_; }
  [[nodiscard]] SessionManager& sessions() noexcept { return manager_; }
  [[nodiscard]] const SessionManager& sessions() const noexcept {
    return manager_;
  }

 private:
  friend void audit::check_waitqueue(const ::confnet::conf::WaitQueueManager&);

  std::vector<ServedTicket> process_queue(util::Rng& rng);

  SessionManager manager_;
  std::size_t capacity_;
  bool allow_bypass_;
  std::deque<Ticket> queue_;
  u64 next_ticket_ = 0;
  WaitStats stats_;
};

}  // namespace confnet::conf
