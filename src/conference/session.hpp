// Dynamic conference session management: the control plane that the DES
// drives. Couples a placement policy (who gets which ports) with a
// conference network design (can the fabric carry it), and accounts for
// blocking by cause.
#pragma once

#include <memory>
#include <optional>

#include "conference/designs.hpp"
#include "conference/placement.hpp"
#include "util/audit.hpp"
#include "util/rng.hpp"

namespace confnet::conf {

enum class OpenResult : std::uint8_t {
  kAccepted,
  kBlockedPlacement,  // no ports available (or buddy fragmentation)
  kBlockedCapacity,   // fabric link channels exhausted
  kBlockedFault,      // every viable placement crosses a live faulty link
};

/// Cumulative control-plane accounting: the only tally of these events.
/// Folded once on destruction into the `conf` subsystem of the
/// obs::Registry (`conf/open_attempts` ... `conf/leaves`); a live manager is
/// asked through stats().
struct SessionStats {
  u64 attempts = 0;
  u64 accepted = 0;
  /// Opens admitted only after their first placement was refused and the
  /// manager re-placed them (subset of `accepted`); see open().
  u64 repacked = 0;
  /// Opens admitted on a shared region, once no free aligned block was
  /// left (subset of `accepted`; buddy only); see open().
  u64 shared = 0;
  u64 blocked_placement = 0;
  u64 blocked_capacity = 0;
  u64 blocked_fault = 0;
  u64 closes = 0;
  u64 joins = 0;
  u64 joins_blocked = 0;
  /// Joins refused because the grown conference would cross a live faulty
  /// link (subset of `joins_blocked`).
  u64 joins_blocked_fault = 0;
  u64 leaves = 0;
  /// Closes forced by a link failure (subset of `closes`); see interrupt().
  u64 interrupted = 0;

  bool operator==(const SessionStats&) const = default;

  /// Field-wise difference: the events counted since snapshot `earlier`.
  [[nodiscard]] SessionStats since(const SessionStats& earlier) const noexcept;

  [[nodiscard]] double blocking_probability() const noexcept {
    return attempts == 0
               ? 0.0
               : static_cast<double>(blocked_placement + blocked_capacity +
                                     blocked_fault) /
                     static_cast<double>(attempts);
  }
};
// since() names all 13 fields: a new field must be added there too.
static_assert(sizeof(SessionStats) == 13 * sizeof(u64));

class SessionManager {
 public:
  /// Borrows the network design (caller keeps ownership and lifetime).
  /// `backend` selects the port-placement implementation: the bitmap fast
  /// path (default) or the reference PortPlacer oracle. Both honour the
  /// same PlacerBase draw-sequence contract, so the choice never changes
  /// session outcomes — only admission cost.
  SessionManager(ConferenceNetworkBase& network, PlacementPolicy policy,
                 PlacerBackend backend = PlacerBackend::kFast);
  /// Folds stats() into the obs::Registry, once: not copyable or movable.
  ~SessionManager();
  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Try to open a conference for `size` members. On success returns a
  /// session id. Under buddy placement an open that finds no free aligned
  /// block takes the shared step (PlacerBase::place_shared_into) under the
  /// cover limit, read once at construction: the design's
  /// narrowest_channels() clamped to 2 .. RegionBook::kMaxCover, or 2 on a
  /// kind without orthogonal windows, where the cover bound does not hold.
  /// The fabric decides whether the shared region can carry one more. A
  /// placement the fabric refuses (link capacity or a dead link) is
  /// re-placed before the open blocks; a blocked open is counted by its
  /// first refusal's cause, and one whose first window was shared as
  /// kBlockedPlacement.
  [[nodiscard]] std::pair<OpenResult, std::optional<u32>> open(
      u32 size, util::Rng& rng);

  /// Whether an open(size) could currently succeed at the placement stage
  /// (ports available; under buddy policy, an aligned block exists). False
  /// guarantees open() would return kBlockedPlacement without consuming
  /// any RNG draws, or find only a shared region — wait queues use this as
  /// a free-capacity watermark to skip retries, so a queued ticket waits
  /// for an aligned block.
  [[nodiscard]] bool placeable(u32 size) const noexcept {
    return placer_->placeable(size);
  }

  /// Close an open session, freeing ports and fabric resources.
  void close(u32 session_id);

  /// Dynamic join: add one member to an open session. Under buddy
  /// placement the member is placed inside the session's region; other
  /// policies pick any free port. Returns the new member's port, or the
  /// blocking cause.
  [[nodiscard]] std::pair<OpenResult, std::optional<u32>> join(
      u32 session_id, util::Rng& rng);

  /// Dynamic leave. Refuses (returns false) when the session would drop
  /// below two members.
  [[nodiscard]] bool leave(u32 session_id, u32 port);

  /// Members of an open session: the fabric group's member list
  /// (ConferenceNetworkBase::members_for), valid until the next mutation.
  [[nodiscard]] const std::vector<u32>& members_of(u32 session_id) const;

  [[nodiscard]] bool contains(u32 session_id) const {
    return find(session_id) != sessions_.end();
  }

  /// Session ids whose fabric handle is in `handles` (e.g. the conferences a
  /// ConferenceNetworkBase::fail_link reported), ascending. O(sessions).
  [[nodiscard]] std::vector<u32> sessions_using(
      const std::vector<u32>& handles) const;

  /// Close a session because a fault tore it down (counts `interrupted` on
  /// top of the regular close accounting).
  void interrupt(u32 session_id);

  /// Fault recovery: move `replacement`, the session just opened for an
  /// interrupted one, onto `retired`, the victim's id, so a conference
  /// keeps one id for life. `retired` must be an earlier id that is not
  /// live; the replacement's own id is never used again.
  void reinstate(u32 replacement, u32 retired);

  /// Fabric handle of an open session (for design-specific queries such as
  /// ConferenceNetworkBase::stages_for).
  [[nodiscard]] u32 handle_of(u32 session_id) const;

  [[nodiscard]] u32 active_sessions() const noexcept {
    return static_cast<u32>(sessions_.size());
  }
  /// Ports held by live sessions (the placer's occupancy).
  [[nodiscard]] u32 busy_ports() const noexcept {
    return network_.size() - placer_->free_ports();
  }
  [[nodiscard]] const SessionStats& stats() const noexcept { return stats_; }
  /// The port placer (its regions and cover, for checks).
  [[nodiscard]] const PlacerBase& placer() const noexcept { return *placer_; }
  [[nodiscard]] ConferenceNetworkBase& network() noexcept { return network_; }
  [[nodiscard]] const ConferenceNetworkBase& network() const noexcept {
    return network_;
  }

 private:
  friend void audit::check_session_manager(const ::confnet::conf::SessionManager&);

  /// A live session names its fabric group; the group owns the members.
  struct Session {
    u32 id;
    u32 handle;
  };
  /// Live session `session_id`, or sessions_.end().
  [[nodiscard]] std::vector<Session>::const_iterator find(
      u32 session_id) const;
  /// Place a window for an open into ports_: an aligned block while one
  /// is free, else a shared region (shared_ tells which). False when
  /// neither is left.
  [[nodiscard]] bool place(u32 size, util::Rng& rng);
  /// Re-place the refused window in ports_ until the fabric admits one or
  /// the attempts run out; every refused window is released on return.
  /// It allocates nothing but what an admission stores, once held_ has
  /// grown to the largest conference repacked.
  [[nodiscard]] std::optional<u32> repack(u32 size, util::Rng& rng);

  ConferenceNetworkBase& network_;
  std::unique_ptr<PlacerBase> placer_;
  // Live sessions, ascending by id. Ids are minted in increasing order, so
  // an open appends; a close erases in place and reinstate() re-inserts.
  std::vector<Session> sessions_;
  std::vector<u32> ports_;  // placement scratch, reused by every open
  // Repack scratch for conferences too large for repack()'s frame: the
  // refused windows of one open, back to back, held while the placer
  // probes on.
  std::vector<u32> held_;
  u32 next_session_ = 0;
  // How deep the shared step may cover a port (see open()).
  u32 cover_limit_;
  SessionStats stats_;
  bool shared_ = false;        // the window in ports_ is on a shared region
  bool shared_tried_ = false;  // some window ever was (for the R2 audit)
};

}  // namespace confnet::conf
