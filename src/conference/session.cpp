#include "conference/session.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "min/windows.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/thread_annotations.hpp"
#include "util/trace.hpp"

namespace confnet::conf {

namespace {

/// Bound on the repack loop in open(): how many distinct placements, the
/// first one included, to try before the open blocks.
constexpr u32 kRepackAttempts = 32;

/// Refused windows of up to this many members are stacked in repack()'s
/// own frame (2 KB); a larger conference stacks its windows in held_.
constexpr std::size_t kFrameMembers = 16;

/// Fold one manager's lifetime counts into the process-wide registry. A
/// manager that saw no event leaves the registry untouched.
void fold_into_registry(const SessionStats& s) {
  if (s == SessionStats{}) return;
  obs::Registry& reg = obs::Registry::global();
  reg.counter("conf", "open_attempts").add(s.attempts);
  reg.counter("conf", "open_accepted").add(s.accepted);
  reg.counter("conf", "open_repacked").add(s.repacked);
  reg.counter("conf", "open_shared").add(s.shared);
  reg.counter("conf", "blocked_placement").add(s.blocked_placement);
  reg.counter("conf", "blocked_capacity").add(s.blocked_capacity);
  reg.counter("conf", "blocked_fault").add(s.blocked_fault);
  reg.counter("conf", "interrupted").add(s.interrupted);
  reg.counter("conf", "closes").add(s.closes);
  reg.counter("conf", "joins").add(s.joins);
  reg.counter("conf", "joins_blocked").add(s.joins_blocked);
  reg.counter("conf", "joins_blocked_fault").add(s.joins_blocked_fault);
  reg.counter("conf", "leaves").add(s.leaves);
}

/// The shared step's cover limit on `network` (see SessionManager::open).
/// The cover bound, by which a link carries no more conferences than
/// regions cover its crossing port, holds only on orthogonal kinds; on the
/// others (baseline, flip) a shared conference stays one layer deep, as
/// deeper layers there only meet more capacity refusals.
u32 cover_limit_of(const ConferenceNetworkBase& network) {
  if (min::has_block_block_windows(network.kind())) return 2;
  return std::clamp(network.narrowest_channels(), u32{2},
                    RegionBook::kMaxCover);
}

}  // namespace

SessionStats SessionStats::since(const SessionStats& earlier) const noexcept {
  return SessionStats{attempts - earlier.attempts,
                      accepted - earlier.accepted,
                      repacked - earlier.repacked,
                      shared - earlier.shared,
                      blocked_placement - earlier.blocked_placement,
                      blocked_capacity - earlier.blocked_capacity,
                      blocked_fault - earlier.blocked_fault,
                      closes - earlier.closes,
                      joins - earlier.joins,
                      joins_blocked - earlier.joins_blocked,
                      joins_blocked_fault - earlier.joins_blocked_fault,
                      leaves - earlier.leaves,
                      interrupted - earlier.interrupted};
}

SessionManager::SessionManager(ConferenceNetworkBase& network,
                               PlacementPolicy policy, PlacerBackend backend)
    : network_(network),
      placer_(make_placer(network.n(), policy, backend)),
      cover_limit_(cover_limit_of(network)) {}

SessionManager::~SessionManager() { fold_into_registry(stats_); }

std::pair<OpenResult, std::optional<u32>> SessionManager::open(
    u32 size, util::Rng& rng) {
  ++stats_.attempts;
  if (!place(size, rng)) {
    ++stats_.blocked_placement;
    obs::trace_emit("conf", "open_blocked_placement", size);
    CONFNET_AUDIT_HOOK(audit::check_session_manager(*this));
    return {OpenResult::kBlockedPlacement, std::nullopt};
  }
  auto handle = network_.setup(ports_);
  if (!handle) {
    // A refused shared window means the aligned step found no room.
    const OpenResult cause =
        shared_ ? OpenResult::kBlockedPlacement
        : network_.last_error() == SetupError::kLinkFaulty
            ? OpenResult::kBlockedFault
            : OpenResult::kBlockedCapacity;
    handle = repack(size, rng);
    if (!handle) {
      const bool fault = cause == OpenResult::kBlockedFault;
      const bool capacity = cause == OpenResult::kBlockedCapacity;
      ++(fault      ? stats_.blocked_fault
         : capacity ? stats_.blocked_capacity
                    : stats_.blocked_placement);
      obs::trace_emit("conf",
                      fault      ? "open_blocked_fault"
                      : capacity ? "open_blocked_capacity"
                                 : "open_blocked_placement",
                      size);
      CONFNET_AUDIT_HOOK(audit::check_session_manager(*this));
      return {cause, std::nullopt};
    }
    ++stats_.repacked;
  }
  stats_.shared += shared_ ? 1 : 0;
  ++stats_.accepted;
  const u32 id = next_session_++;
  sessions_.push_back(Session{id, *handle});
  obs::trace_emit("conf", "open_accepted", size);
  CONFNET_AUDIT_HOOK(audit::check_session_manager(*this));
  return {OpenResult::kAccepted, id};
}

bool SessionManager::place(u32 size, util::Rng& rng) {
  shared_ = !placer_->place_into(size, rng, ports_);
  if (!shared_) return true;
  if (!placer_->place_shared_into(size, cover_limit_, ports_)) return false;
  shared_tried_ = true;
  return true;
}

// Whether a dilation-d fabric carries a conference depends on where its
// members sit, so a refused window is not the last word. A deterministic
// placer (buddy, first-fit) would hand the same window back forever, so
// each refused window is stacked and stays placed while the placer probes
// on: aligned blocks while any is free, then shared regions, each one
// more covered than the last as the held windows cover them. The stack is
// released when the loop ends, admitted or not. Each window is stacked
// before the next is placed, and a failed place() places nothing (it
// only empties ports_).
CONFNET_HOT std::optional<u32> SessionManager::repack(u32 size,
                                                      util::Rng& rng) {
  std::array<u32, kFrameMembers * kRepackAttempts> frame{};
  std::span<u32> stack(frame);
  const std::size_t need = std::size_t{size} * kRepackAttempts;
  if (need > stack.size()) {
    // static_check: allow(hot-alloc) held_ grows to the largest conference
    // repacked so far, once; every later repack reuses it
    if (held_.size() < need) held_.resize(need);
    stack = held_;
  }
  std::optional<u32> handle;
  u32 held = 0;
  while (!handle) {
    std::copy(ports_.begin(), ports_.end(),
              stack.begin() + std::size_t{held++} * size);
    // A shared window the links refused ends the probe: every region the
    // shared step offers next is covered too, by conferences whose links
    // meet it in the same way.
    const bool crowded =
        shared_ && network_.last_error() == SetupError::kLinkCapacity;
    if (held == kRepackAttempts || crowded || !place(size, rng)) break;
    handle = network_.setup(ports_);
  }
  // static_check: allow(hot-alloc) within capacity: a failed place() left
  // ports_ empty, and it has held a window of this size
  ports_.resize(size);
  for (u32 w = 0; w < held; ++w) {
    std::copy_n(stack.begin() + std::size_t{w} * size, size, ports_.begin());
    placer_->release(ports_);
  }
  return handle;
}

std::vector<SessionManager::Session>::const_iterator SessionManager::find(
    u32 session_id) const {
  const auto it = std::lower_bound(
      sessions_.begin(), sessions_.end(), session_id,
      [](const Session& s, u32 id) { return s.id < id; });
  return it != sessions_.end() && it->id == session_id ? it : sessions_.end();
}

void SessionManager::close(u32 session_id) {
  const auto it = find(session_id);
  expects(it != sessions_.end(), "close of unknown session");
  placer_->release(network_.members_for(it->handle));
  network_.teardown(it->handle);
  sessions_.erase(it);
  ++stats_.closes;
  obs::trace_emit("conf", "close", session_id);
  CONFNET_AUDIT_HOOK(audit::check_session_manager(*this));
}

const std::vector<u32>& SessionManager::members_of(u32 session_id) const {
  const auto it = find(session_id);
  expects(it != sessions_.end(), "unknown session");
  return network_.members_for(it->handle);
}

std::pair<OpenResult, std::optional<u32>> SessionManager::join(
    u32 session_id, util::Rng& rng) {
  const auto it = find(session_id);
  expects(it != sessions_.end(), "join on unknown session");
  const u32 handle = it->handle;
  const auto port = placer_->expand(network_.members_for(handle), rng);
  if (!port) {
    ++stats_.joins_blocked;
    obs::trace_emit("conf", "join_blocked", session_id);
    return {OpenResult::kBlockedPlacement, std::nullopt};
  }
  if (!network_.add_member(handle, *port)) {
    placer_->release_one(*port);
    const bool fault = network_.last_error() == SetupError::kLinkFaulty;
    ++stats_.joins_blocked;
    stats_.joins_blocked_fault += fault ? 1 : 0;
    obs::trace_emit("conf", "join_blocked", session_id);
    CONFNET_AUDIT_HOOK(audit::check_session_manager(*this));
    return {fault ? OpenResult::kBlockedFault : OpenResult::kBlockedCapacity,
            std::nullopt};
  }
  ++stats_.joins;
  obs::trace_emit("conf", "join", session_id);
  CONFNET_AUDIT_HOOK(audit::check_session_manager(*this));
  return {OpenResult::kAccepted, port};
}

bool SessionManager::leave(u32 session_id, u32 port) {
  const auto it = find(session_id);
  expects(it != sessions_.end(), "leave on unknown session");
  const u32 handle = it->handle;
  if (!network_.remove_member(handle, port)) return false;
  placer_->release_one(port);
  ++stats_.leaves;
  obs::trace_emit("conf", "leave", session_id);
  CONFNET_AUDIT_HOOK(audit::check_session_manager(*this));
  return true;
}

u32 SessionManager::handle_of(u32 session_id) const {
  const auto it = find(session_id);
  expects(it != sessions_.end(), "unknown session");
  return it->handle;
}

std::vector<u32> SessionManager::sessions_using(
    const std::vector<u32>& handles) const {
  std::vector<u32> sorted = handles;
  std::sort(sorted.begin(), sorted.end());
  std::vector<u32> ids;
  for (const Session& s : sessions_)
    if (std::binary_search(sorted.begin(), sorted.end(), s.handle))
      ids.push_back(s.id);
  return ids;
}

void SessionManager::reinstate(u32 replacement, u32 retired) {
  const auto from = find(replacement);
  expects(from != sessions_.end() && retired < replacement &&
              !contains(retired),
          "reinstate needs a live session and an earlier id not live");
  const u32 handle = from->handle;
  sessions_.erase(from);
  const auto at = std::lower_bound(
      sessions_.begin(), sessions_.end(), retired,
      [](const Session& s, u32 id) { return s.id < id; });
  sessions_.insert(at, Session{retired, handle});
  CONFNET_AUDIT_HOOK(audit::check_session_manager(*this));
}

// static_check: allow(audit-hook) delegates to close(), which audits
void SessionManager::interrupt(u32 session_id) {
  ++stats_.interrupted;
  obs::trace_emit("conf", "interrupt", session_id);
  close(session_id);
}

}  // namespace confnet::conf

namespace confnet::audit {

void check_session_stats(const conf::SessionStats& stats,
                         u64 active_sessions) {
  constexpr std::string_view kSub = "session";
  require(stats.attempts == stats.accepted + stats.blocked_placement +
                                stats.blocked_capacity + stats.blocked_fault,
          kSub, "attempts do not split into accepted + blocking causes");
  require(stats.repacked <= stats.accepted, kSub,
          "more repacked opens than accepted opens");
  require(stats.shared <= stats.accepted, kSub,
          "more shared opens than accepted opens");
  require(stats.interrupted <= stats.closes, kSub,
          "more fault interrupts than closes");
  require(stats.joins_blocked_fault <= stats.joins_blocked, kSub,
          "more fault-refused joins than refused joins");
  require(active_sessions <= stats.accepted, kSub,
          "more live sessions than accepted opens");
  require(stats.closes <= stats.accepted, kSub,
          "more closes than accepted opens");
  // Sessions leave only through close(): the live count is exactly the
  // open/close difference.
  require(active_sessions + stats.closes == stats.accepted, kSub,
          "live sessions disagree with accepted minus closed");
}

void check_session_manager(const conf::SessionManager& manager) {
  constexpr std::string_view kSub = "session";
  using conf::u32;
  const u32 N = manager.network_.size();
  std::vector<std::vector<u32>> member_sets;
  member_sets.reserve(manager.sessions_.size());
  u64 total_ports = 0;
  for (std::size_t i = 0; i < manager.sessions_.size(); ++i) {
    const auto& session = manager.sessions_[i];
    require(session.id < manager.next_session_, kSub,
            "session id from the future");
    require(i == 0 || manager.sessions_[i - 1].id < session.id, kSub,
            "session table not ascending by id");
    const std::vector<u32>& ports =
        manager.network_.members_for(session.handle);
    require(ports.size() >= 2, kSub, "live session below two members");
    total_ports += ports.size();
    member_sets.push_back(ports);
  }
  check_disjoint_memberships(member_sets, N, kSub);
  check_session_stats(manager.stats_, manager.sessions_.size());
  // Cross-check against the placer: exactly the session ports are occupied.
  require(manager.placer_->free_ports() == N - total_ports, kSub,
          "placer occupancy disagrees with live session ports");
  for (const auto& members : member_sets)
    for (u32 port : members)
      require(manager.placer_->occupied(port), kSub,
              "session port not marked occupied in the placer");
  check_placer(*manager.placer_);
  if (manager.placer_->policy() != conf::PlacementPolicy::kBuddy) return;
  // Every session lies in the region its placer recorded, and each port's
  // cover is the number of live regions holding it.
  std::vector<u32> cover(N, 0);
  for (const auto& members : member_sets) {
    const conf::Region region = manager.placer_->region_of(members.front());
    for (u32 port : members)
      require(region.contains(port) &&
                  manager.placer_->region_of(port) == region,
              kSub, "session member outside its recorded region");
    for (u32 p = region.base; p < region.end(); ++p) ++cover[p];
  }
  // Windows a repack holds are released before this audit runs, so the
  // sessions' regions are all the live ones.
  for (u32 p = 0; p < N; ++p) {
    require(manager.placer_->cover(p) == cover[p], kSub,
            "placer cover diverges from the sessions' regions");
    require(cover[p] <= manager.cover_limit_, kSub,
            "a port covered beyond the manager's cover limit");
  }
  // The cover bound (R2 generalized; FabricState::cross_check checks it
  // link by link): on a healthy fabric of a kind with orthogonal (block x
  // stride) windows, no link carries more conferences than regions cover
  // its crossing port. So an aligned window on uncovered ports never meets
  // link capacity, and while the cover limit is within the narrowest
  // capacity no window does: no open or join is refused for capacity,
  // shared or not. Below it only a session that shared a region can be.
  const auto* direct =
      dynamic_cast<const conf::FabricConferenceNetwork*>(&manager.network_);
  if (direct == nullptr || min::has_block_block_windows(direct->kind()) ||
      direct->faults()->fault_count() != 0)
    return;
  const bool within = manager.cover_limit_ <= direct->narrowest_channels();
  require(manager.stats_.blocked_capacity == 0 &&
              ((manager.shared_tried_ && !within) ||
               direct->last_error() != conf::SetupError::kLinkCapacity),
          kSub,
          within ? "cover bound: link capacity refused a conference within "
                   "the cover limit"
                 : "cover bound: link capacity refused an unshared "
                   "conference");
}

}  // namespace confnet::audit
