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

}  // namespace

SessionStats SessionStats::since(const SessionStats& earlier) const noexcept {
  return SessionStats{attempts - earlier.attempts,
                      accepted - earlier.accepted,
                      repacked - earlier.repacked,
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
    : network_(network), placer_(make_placer(network.n(), policy, backend)) {}

SessionManager::~SessionManager() { fold_into_registry(stats_); }

std::pair<OpenResult, std::optional<u32>> SessionManager::open(
    u32 size, util::Rng& rng) {
  ++stats_.attempts;
  if (!placer_->place_into(size, rng, ports_)) {
    ++stats_.blocked_placement;
    obs::trace_emit("conf", "open_blocked_placement", size);
    CONFNET_AUDIT_HOOK(audit::check_session_manager(*this));
    return {OpenResult::kBlockedPlacement, std::nullopt};
  }
  auto handle = network_.setup(ports_);
  if (!handle) {
    const bool fault = network_.last_error() == SetupError::kLinkFaulty;
    handle = repack(size, rng);
    if (!handle) {
      ++(fault ? stats_.blocked_fault : stats_.blocked_capacity);
      obs::trace_emit("conf",
                      fault ? "open_blocked_fault" : "open_blocked_capacity",
                      size);
      CONFNET_AUDIT_HOOK(audit::check_session_manager(*this));
      return {fault ? OpenResult::kBlockedFault : OpenResult::kBlockedCapacity,
              std::nullopt};
    }
    ++stats_.repacked;
  }
  ++stats_.accepted;
  const u32 id = next_session_++;
  sessions_.push_back(Session{id, *handle});
  obs::trace_emit("conf", "open_accepted", size);
  CONFNET_AUDIT_HOOK(audit::check_session_manager(*this));
  return {OpenResult::kAccepted, id};
}

// Whether a dilation-d fabric carries a conference depends on where its
// members sit, so a refused window is not the last word. A deterministic
// placer (buddy, first-fit) would hand the same window back forever, so
// each refused window is stacked and stays placed while the placer probes
// on; the stack is released when the loop ends, admitted or not.
// placeable() is exact, so a probe is only made when it succeeds and
// ports_ always holds a whole window to stack or to release through.
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
    if (held == kRepackAttempts || !placer_->placeable(size)) break;
    const bool placed = placer_->place_into(size, rng, ports_);
    expects(placed, "placeable() promised a placement");
    handle = network_.setup(ports_);
  }
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
  // R2 on live state: buddy placement on a kind with orthogonal (block x
  // stride) windows is conflict-free, so on a healthy direct (unrelayed)
  // fabric no interstage link carries two conferences and capacity never
  // refuses an open or a join.
  const auto* direct =
      dynamic_cast<const conf::FabricConferenceNetwork*>(&manager.network_);
  if (direct == nullptr || direct->relays() ||
      manager.placer_->policy() != conf::PlacementPolicy::kBuddy ||
      min::has_block_block_windows(direct->kind()) ||
      direct->faults()->fault_count() != 0)
    return;
  for (u32 level = 1; level < direct->n(); ++level)
    require(direct->current_level_load(level) <= 1, kSub,
            "R2: two buddy-placed conferences share an interstage link");
  require(manager.stats_.blocked_capacity == 0 &&
              direct->last_error() != conf::SetupError::kLinkCapacity,
          kSub, "R2: link capacity refused a buddy-placed conference");
}

}  // namespace confnet::audit
