#include "switchmod/fabric_state.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>
#include <utility>

#include "min/selfroute.hpp"
#include "min/windows.hpp"
#include "util/audit.hpp"
#include "util/error.hpp"
#include "util/thread_annotations.hpp"

namespace confnet::sw {

namespace {
/// True iff `rows` holds `row` (rows sorted).
bool holds(std::span<const u32> rows, u32 row) {
  return std::binary_search(rows.begin(), rows.end(), row);
}


/// Invoke fn(level, row) for every link present in `a` but not in `b`.
template <typename Fn>
void for_each_delta(const min::LevelLinks& a, const min::LevelLinks& b,
                    Fn&& fn) {
  for (u32 level = 0; level < a.levels(); ++level)
    for (u32 row : a[level])
      if (!holds(b[level], row)) fn(level, row);
}
}  // namespace

FabricState::FabricState(min::Network net, std::span<const u32> capacity,
                         bool relay)
    : net_(std::move(net)), relay_(relay), faults_(net_.n()),
      busy_(net_.size()) {
  expects(capacity.size() == static_cast<std::size_t>(net_.n()) + 1,
          "FabricState capacity needs n+1 levels");
  for (u32 c : capacity)
    expects(c >= 1, "FabricState needs at least one channel per link");
  expects(!relay || net_.kind() == min::Kind::kIndirectCube,
          "a relay tap needs the indirect cube");
  std::copy(capacity.begin(), capacity.end(), capacity_.begin());
  for (u32 level = 1; level < net_.n(); ++level)
    cover_limit_ = std::min(cover_limit_, capacity_[level]);
  if (r2_capable()) {
    // In R2 mode no cover exceeds cover_limit_; leave_r2() widens the
    // planes to hold any group count, at most N.
    r2_ = true;
    cover_ = util::SlicedCounts(
        net_.size(), static_cast<u32>(std::bit_width(
                         std::min<std::size_t>(cover_limit_, net_.size()))));
  } else {
    leave_r2();
  }
}

FabricState::Block FabricState::enclosing_block(
    std::span<const u32> members) {
  const u32 size = u32{1}
                   << std::bit_width(members.front() ^ members.back());
  return {members.front() & ~(size - 1), size};
}

bool FabricState::r2_capable() const noexcept {
  return !min::has_block_block_windows(net_.kind());
}

bool FabricState::r2_claim(std::span<const u32> old,
                           std::span<const u32> members) {
  if (!r2_) return false;
  const Block block = enclosing_block(members);
  const Block held = old.empty() ? Block{0, 0} : enclosing_block(old);
  if (held == block) return true;
  if (held.size != 0) cover_.step(held.first, held.size, false);
  const bool fits = !cover_.any_equal(block.first, block.size, cover_limit_);
  if (fits)
    cover_.step(block.first, block.size, true);
  else if (held.size != 0)
    cover_.step(held.first, held.size, true);  // restore
  return fits;
}

CONFNET_HOT bool FabricState::r2_refuses(u32 self,
                                         std::span<const u32> members) {
  derive(members, rows_, parts_);
  const Block block = enclosing_block(members);
  const std::size_t rows = rows_.base(rows_.levels());
  if (row_users_.size() < rows) {
    // static_check: allow(hot-alloc) grows in powers of two to the most
    // rows a group has had here, O(log) times
    row_users_.resize(std::bit_ceil(rows));
  }
  std::fill_n(row_users_.begin(), rows, 0u);
  for (u32 id = 0; id < entries_.size(); ++id) {
    const Entry& entry = entries_[id];
    if (!live(entry) || id == self) continue;
    const Block other = enclosing_block(entry.members);
    if (other.first >= block.first + block.size ||
        block.first >= other.first + other.size)
      continue;  // disjoint blocks: by the cover bound, no shared link
    derive(entry.members, old_rows_, parts_);
    for (u32 level = 0; level < rows_.levels(); ++level) {
      const std::span<const u32> mine = rows_[level];
      const std::span<const u32> theirs = old_rows_[level];
      for (std::size_t i = 0, j = 0; i < mine.size() && j < theirs.size();) {
        if (mine[i] != theirs[j]) {
          (mine[i] < theirs[j] ? i : j) += 1;
          continue;
        }
        if (++row_users_[rows_.base(level) + i] >= capacity_[level])
          return true;
        ++i;
        ++j;
      }
    }
  }
  return false;
}

void FabricState::move_cover(std::span<const u32> old,
                             std::span<const u32> members) {
  if (!r2_capable()) return;
  const Block held = old.empty() ? Block{0, 0} : enclosing_block(old);
  const Block block = members.empty() ? Block{0, 0} : enclosing_block(members);
  if (held == block) return;
  if (held.size != 0) cover_.step(held.first, held.size, false);
  if (block.size != 0) cover_.step(block.first, block.size, true);
}

void FabricState::leave_r2() {
  r2_ = false;
  cover_.widen(static_cast<u32>(std::bit_width(net_.size())));
  if (load_.empty()) load_.assign(std::size_t{net_.n() + 1} * net_.size(), 0);
  for (const Entry& entry : entries_) {
    if (!live(entry)) continue;
    derive(entry.members, rows_, parts_);
    apply_load(rows_, true);
  }
}

void FabricState::maybe_enter_r2() {
  if (r2_ || !r2_capable() || faults_.fault_count() != 0 ||
      cover_.any_above(cover_limit_))
    return;
  // Every load is at most the cover of its crossing port, so none exceeds
  // its capacity: the table drops to all zero (kept, for the next exit).
  expects(overflowing_ == 0, "a healthy fabric within its cover overflows");
  std::fill(load_.begin(), load_.end(), std::uint16_t{0});
  r2_ = true;
}

void FabricState::expect_members_free(std::span<const u32> old,
                                      std::span<const u32> members) const {
  for (u32 m : members)
    expects(!busy_.test(m) || holds(old, m),
            "groups must be pairwise disjoint");
}

u32 FabricState::tap_of(std::span<const u32> members) const {
  return relay_ ? min::cube_tap_level(members) : GroupRealization::kNoTap;
}

void FabricState::derive(std::span<const u32> members, min::LevelLinks& rows,
                         std::vector<u32>& parts) const {
  min::path_union(net_.kind(), net_.n(), members, members,
                  relay_ ? min::cube_tap_level(members) : net_.n(), rows,
                  parts);
}

void FabricState::derive_swap(const Entry& entry,
                              std::span<const u32> members) {
  derive(members, rows_, parts_);
  derive(entry.members, old_rows_, parts_);
}

CONFNET_HOT void FabricState::apply_load(const min::LevelLinks& rows,
                                         bool add) {
  for (u32 level = 0; level < rows.levels(); ++level) {
    const u32 cap = capacity_[level];
    for (u32 row : rows[level]) {
      std::uint16_t& load = load_[link_index(level, row)];
      if (add) {
        if (++load == cap + 1) ++overflowing_;
      } else {
        expects(load > 0, "link load underflow");
        if (load-- == cap + 1) --overflowing_;
      }
    }
  }
}

CONFNET_HOT Admission FabricState::try_add(u32 id,
                                           std::span<const u32> members) {
  validate_members(net_, members);
  expects(!contains(id), "group id already admitted");
  expect_members_free({}, members);
  if (!r2_claim({}, members)) {
    if (r2_) {
      if (r2_refuses(id, members)) return Admission::kLinkCapacity;
      leave_r2();
    }
    derive(members, rows_, parts_);
    if (dead_links_in(rows_) != 0) return Admission::kLinkFaulty;
    for (u32 level = 0; level < rows_.levels(); ++level)
      for (u32 row : rows_[level])
        if (load_[link_index(level, row)] >= capacity_[level])
          return Admission::kLinkCapacity;
    apply_load(rows_, true);
    move_cover({}, members);
  }

  for (u32 m : members) busy_.set(m);
  // static_check: allow(hot-alloc) grows to the largest id, amortized
  if (id >= entries_.size()) entries_.resize(id + 1);
  Entry& entry = entries_[id];
  // static_check: allow(hot-alloc) the admitted member list: this path's
  // only allocation
  entry.members.assign(members.begin(), members.end());
  entry.dead_links = 0;  // checked above, or no fault in R2 mode
  ++group_count_;
  CONFNET_AUDIT_HOOK(maybe_periodic_audit());
  return Admission::kAdmitted;
}

CONFNET_HOT Admission FabricState::try_replace(u32 id,
                                               std::span<const u32> members) {
  expects(contains(id), "replace of unknown group id");
  validate_members(net_, members);
  Entry& entry = entries_[id];
  expect_members_free(entry.members, members);
  if (r2_claim(entry.members, members)) {
    swap_group(entry, members, 0);
    CONFNET_AUDIT_HOOK(maybe_periodic_audit());
    return Admission::kAdmitted;
  }
  if (r2_) {
    if (r2_refuses(id, members)) return Admission::kLinkCapacity;
    leave_r2();
  }
  derive_swap(entry, members);
  // The whole replacement realization must avoid the fault mask (not just
  // the gained links): a successful try_ mutation never yields a degraded
  // group. Shrink paths that must tolerate degradation use replace().
  if (dead_links_in(rows_) != 0) return Admission::kLinkFaulty;
  bool feasible = true;
  for_each_delta(rows_, old_rows_, [&](u32 level, u32 row) {
    if (load_[link_index(level, row)] >= capacity_[level]) feasible = false;
  });
  if (!feasible) return Admission::kLinkCapacity;

  move_cover(entry.members, members);
  swap_group(entry, members, 0);  // checked above
  CONFNET_AUDIT_HOOK(maybe_periodic_audit());
  return Admission::kAdmitted;
}

CONFNET_HOT void FabricState::replace(u32 id, std::span<const u32> members) {
  expects(contains(id), "replace of unknown group id");
  validate_members(net_, members);
  Entry& entry = entries_[id];
  expect_members_free(entry.members, members);
  if (r2_claim(entry.members, members)) {
    swap_group(entry, members, 0);
  } else {
    if (r2_) leave_r2();
    derive_swap(entry, members);
    move_cover(entry.members, members);
    swap_group(entry, members, dead_links_in(rows_));
  }
  CONFNET_AUDIT_HOOK(maybe_periodic_audit());
}

CONFNET_HOT void FabricState::swap_group(Entry& entry,
                                         std::span<const u32> members,
                                         u32 dead_links) {
  for (u32 m : entry.members) busy_.reset(m);
  for (u32 m : members) busy_.set(m);
  if (!r2_) {
    for_each_delta(rows_, old_rows_, [&](u32 level, u32 row) {
      std::uint16_t& load = load_[link_index(level, row)];
      if (++load == capacity_[level] + 1) ++overflowing_;
    });
    for_each_delta(old_rows_, rows_, [&](u32 level, u32 row) {
      std::uint16_t& load = load_[link_index(level, row)];
      expects(load > 0, "link load underflow");
      if (load-- == capacity_[level] + 1) --overflowing_;
    });
  }
  // `members` may be the entry's own list (a same-member swap).
  if (members.data() != entry.members.data()) {
    // static_check: allow(hot-alloc) the new member list, a grow's one
    // allocation
    entry.members.assign(members.begin(), members.end());
  }
  entry.dead_links = dead_links;
}

CONFNET_HOT void FabricState::remove(u32 id) {
  expects(contains(id), "remove of unknown group id");
  Entry& entry = entries_[id];
  if (!r2_) {
    derive(entry.members, rows_, parts_);
    apply_load(rows_, false);
  }
  move_cover(entry.members, {});
  for (u32 m : entry.members) busy_.reset(m);
  entry = Entry{};  // a free entry owns no heap
  --group_count_;
  maybe_enter_r2();
  CONFNET_AUDIT_HOOK(maybe_periodic_audit());
}

CONFNET_HOT const std::vector<u32>& FabricState::count_link_users(
    u32 level, u32 row, bool failed) {
  users_scratch_.clear();
  // One channel per group per link: the link's load is its user count.
  const u32 users = load_[link_index(level, row)];
  if (users == 0) return users_scratch_;
  // A group uses the link iff it has a member in each of its windows (and,
  // when tapped, the link is not above the tap).
  const min::WindowDesc in = min::in_window(net_.kind(), net_.n(), level, row);
  const min::WindowDesc out =
      min::out_window(net_.kind(), net_.n(), level, row);
  for (u32 id = 0; id < entries_.size(); ++id) {
    Entry& entry = entries_[id];
    if (!live(entry)) continue;
    if (relay_ && level > min::cube_tap_level(entry.members)) continue;
    bool from = false;
    bool to = false;
    for (u32 m : entry.members) {
      from = from || in.contains(m);
      to = to || out.contains(m);
      if (from && to) break;
    }
    if (!(from && to)) continue;
    if (failed)
      ++entry.dead_links;
    else
      --entry.dead_links;
    // static_check: allow(hot-alloc) capacity reused across mutations,
    // bounded by peak groups on one link
    users_scratch_.push_back(id);
    if (users_scratch_.size() == users) break;
  }
  return users_scratch_;
}

const std::vector<u32>& FabricState::fail_link(u32 level, u32 row) {
  expects(level <= net_.n() && row < net_.size(), "fail_link out of range");
  if (faults_.is_faulty(level, row)) {
    users_scratch_.clear();
    return users_scratch_;
  }
  // A fault ends R2 mode: the victims are found through the loads.
  if (r2_) leave_r2();
  faults_.fail_link(level, row);
  const auto& touched = count_link_users(level, row, true);
  CONFNET_AUDIT_HOOK(maybe_periodic_audit());
  return touched;
}

const std::vector<u32>& FabricState::repair_link(u32 level, u32 row) {
  expects(level <= net_.n() && row < net_.size(), "repair_link out of range");
  if (!faults_.is_faulty(level, row)) {
    users_scratch_.clear();
    return users_scratch_;
  }
  faults_.repair_link(level, row);
  const auto& touched = count_link_users(level, row, false);
  maybe_enter_r2();
  CONFNET_AUDIT_HOOK(maybe_periodic_audit());
  return touched;
}

bool FabricState::group_survives(u32 id) const {
  return entry_of(id).dead_links == 0;
}

GroupRealization FabricState::realization(u32 id) const {
  const Entry& entry = entry_of(id);
  GroupRealization g;
  g.id = id;
  g.tap_level = tap_of(entry.members);
  g.members = entry.members;
  std::vector<u32> parts;
  derive(entry.members, g.links, parts);
  return g;
}

CONFNET_HOT u32 FabricState::dead_links_in(const min::LevelLinks& rows) const {
  if (faults_.fault_count() == 0) return 0;
  u32 dead = 0;
  for (u32 level = 0; level < rows.levels(); ++level)
    for (u32 row : rows[level])
      if (faults_.is_faulty(level, row)) ++dead;
  return dead;
}

bool FabricState::delivery_ok() const {
  for (const Entry& entry : entries_)
    if (live(entry) && entry.dead_links != 0) return false;
  return true;
}

u32 FabricState::load_at(u32 level, u32 row) const {
  expects(level <= net_.n(), "level out of range");
  expects(row < net_.size(), "row out of range");
  if (r2_) return recount_loads()[link_index(level, row)];
  return load_[link_index(level, row)];
}

u32 FabricState::level_peak_load(u32 level) const {
  expects(level <= net_.n(), "level out of range");
  const auto offset = static_cast<std::ptrdiff_t>(link_index(level, 0));
  if (r2_) {
    const std::vector<u32> loads = recount_loads();
    return *std::max_element(loads.begin() + offset,
                             loads.begin() + offset + net_.size());
  }
  return *std::max_element(load_.begin() + offset,
                           load_.begin() + offset + net_.size());
}

std::vector<u32> FabricState::recount_loads() const {
  std::vector<u32> loads(std::size_t{net_.n() + 1} * net_.size(), 0);
  min::LevelLinks rows;
  std::vector<u32> parts;
  for_each_group([&](u32 id) {
    derive(entries_[id].members, rows, parts);
    for (u32 level = 0; level < rows.levels(); ++level)
      for (u32 row : rows[level]) ++loads[link_index(level, row)];
  });
  return loads;
}

void FabricState::cross_check() const {
  constexpr std::string_view kSub = "fabric_state";
  const u32 N = net_.size();
  const u32 n = net_.n();

  // Materialize every live group, then recount the load matrix and
  // overflow counter from the realizations. Counted in u32, so a load that
  // wrapped its 16 bits shows as divergence.
  std::vector<GroupRealization> groups;
  for_each_group([&](u32 id) { groups.push_back(realization(id)); });
  const std::vector<u32> expected_load = recount_loads();
  util::DynBitset expected_busy(N);
  std::vector<u32> expected_cover(N, 0);
  u32 expected_overflowing = 0;
  for (const GroupRealization& g : groups) {
    audit::require(std::adjacent_find(g.members.begin(), g.members.end(),
                                      std::greater_equal<>()) ==
                           g.members.end() &&
                       g.members.back() < N,
                   kSub, "stored member list is not sorted rows below N");
    for (u32 m : g.members) {
      audit::require(!expected_busy.test(m), kSub,
                     "admitted groups share a member port");
      expected_busy.set(m);
    }
    const Block block = enclosing_block(g.members);
    for (u32 p = block.first; p < block.first + block.size; ++p)
      ++expected_cover[p];
  }
  audit::require(groups.size() == group_count_, kSub,
                 "group count diverges from the live entries");
  for (u32 level = 0; level <= n; ++level)
    for (u32 row = 0; row < N; ++row)
      if (expected_load[link_index(level, row)] > capacity_[level])
        ++expected_overflowing;
  if (r2_capable() && faults_.fault_count() == 0) {
    // The cover bound, in or out of R2 mode: on an orthogonal kind a link
    // carries at most as many groups as there are blocks holding its
    // crossing port.
    for (u32 level = 1; level < n; ++level) {
      for (u32 row = 0; row < N; ++row) {
        const u32 load = expected_load[link_index(level, row)];
        if (load == 0) continue;
        const u32 port = min::crossing_port(
            min::in_window(net_.kind(), n, level, row),
            min::out_window(net_.kind(), n, level, row));
        audit::require(load <= expected_cover[port], kSub,
                       "cover bound: a link carries more groups than "
                       "blocks cover its crossing port");
      }
    }
  }
  if (r2_capable())
    for (u32 p = 0; p < N; ++p)
      audit::require(cover_.at(p) == expected_cover[p], kSub,
                     "port cover diverges from the live groups' blocks");
  if (r2_) {
    // No port is covered beyond the narrowest interstage capacity, so by
    // the cover bound no load exceeds its capacity. The load table, if a
    // past excursion allocated it, is untouched and all zero.
    audit::require(r2_capable() && faults_.fault_count() == 0, kSub,
                   "R2 mode on a fabric R2 does not cover");
    audit::require(std::all_of(expected_cover.begin(), expected_cover.end(),
                               [&](u32 c) { return c <= cover_limit_; }),
                   kSub, "R2 mode: a port covered beyond the link capacity");
    audit::require(std::all_of(load_.begin(), load_.end(),
                               [](std::uint16_t load) { return load == 0; }),
                   kSub, "R2 mode: the load table holds a load");
  } else {
    audit::require(std::equal(load_.begin(), load_.end(),
                              expected_load.begin(), expected_load.end()),
                   kSub, "incremental load matrix diverges from group recount");
  }
  audit::require(busy_ == expected_busy, kSub,
                 "busy-port set diverges from group membership");
  audit::require(overflowing_ == expected_overflowing, kSub,
                 "overflow counter diverges from load recount");

  // The fault counter must match its own bitsets before it is trusted as
  // the degraded-evaluation fast-path gate.
  audit::require(faults_.count_consistent(), kSub,
                 "fault count diverges from the fault bitsets");

  // Pin each group's counters: its dead-link count against a recount over
  // the fault mask, then its closed-form verdict against the set-based
  // sweep of Fabric::propagate on the same (possibly degraded) fabric.
  const Fabric oracle(
      net_, FabricConfig{std::numeric_limits<u32>::max(), true, true});
  for (const GroupRealization& g : groups) {
    const Entry& entry = entries_[g.id];
#if defined(CONFNET_AUDIT)
    audit::check_group_realization(net_, g);
#endif
    audit::require(entry.dead_links == dead_links_in(g.links), kSub,
                   "dead-link count diverges from the fault-mask recount");
    const PropagationResult ref = oracle.propagate(g, &faults_);
    bool exact = true;
    for (const MemberSet& heard : ref.delivered)
      if (heard.values() != g.members) exact = false;
    audit::require(exact == (entry.dead_links == 0), kSub,
                   "closed-form delivery (exact iff no dead link) diverges "
                   "from Fabric::propagate");
  }
}

void FabricState::maybe_periodic_audit() {
  // Every mutation re-checks cheap counters implicitly via apply_load's
  // contracts; the full stateless cross-check is amortized.
  if (++mutations_ % 32 == 0) audit::check_fabric_state(*this);
}

}  // namespace confnet::sw

namespace confnet::audit {

void check_fabric_state(const sw::FabricState& state) {
  for (u32 c : state.capacity())
    require(c >= 1, "fabric_state", "capacity below one channel");
  state.cross_check();
}

}  // namespace confnet::audit
