#include "switchmod/fabric_state.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "util/audit.hpp"
#include "util/error.hpp"
#include "util/thread_annotations.hpp"

namespace confnet::sw {

namespace {
/// The 16-bit guard every increment path runs before changing anything.
void expect_headroom(u32 load) {
  expects(load < FabricState::kMaxLoad,
          "link load would pass the 16-bit ceiling");
}

/// Invoke fn(level, row) for every link present in `a` but not in `b`.
template <typename Fn>
void for_each_delta(const min::LevelLinks& a, const min::LevelLinks& b,
                    Fn&& fn) {
  for (u32 level = 0; level < a.levels(); ++level) {
    const std::span<const u32> other = b[level];
    for (u32 row : a[level])
      if (!std::binary_search(other.begin(), other.end(), row))
        fn(level, row);
  }
}
}  // namespace

FabricState::FabricState(min::Network net, FabricConfig config)
    : net_(std::move(net)),
      fan_in_(config.fan_in),
      fan_out_(config.fan_out),
      faults_(net_.n()),
      load_(std::size_t{net_.n() + 1} * net_.size(), 0),
      busy_(net_.size()) {
  expects(config.channels_per_link >= 1,
          "FabricState needs at least one channel per link");
  capacity_.fill(config.channels_per_link);
}

FabricState::FabricState(min::Network net, std::span<const u32> capacity,
                         bool fan_in, bool fan_out)
    : FabricState(std::move(net), FabricConfig{1, fan_in, fan_out}) {
  expects(capacity.size() == static_cast<std::size_t>(net_.n()) + 1,
          "FabricState capacity needs n+1 levels");
  for (u32 c : capacity)
    expects(c >= 1, "FabricState needs at least one channel per link");
  std::copy(capacity.begin(), capacity.end(), capacity_.begin());
}

CONFNET_HOT void FabricState::apply_load(const GroupRealization& group,
                                         bool add) {
  for (u32 level = 0; level < group.links.levels(); ++level) {
    const u32 cap = capacity_[level];
    for (u32 row : group.links[level]) {
      std::uint16_t& load = load_[link_index(level, row)];
      if (add) {
        // try_add ran expect_headroom on this link before calling here.
        if (++load == cap + 1) ++overflowing_;
      } else {
        expects(load > 0, "link load underflow");
        if (load-- == cap + 1) --overflowing_;
      }
    }
  }
}

void FabricState::store(Entry& entry, const GroupRealization& group) {
  entry.group.id = group.id;
  entry.group.tap_level = group.tap_level;
  entry.group.members.assign(group.members.begin(), group.members.end());
  entry.group.links.assign(group.links);
}

CONFNET_HOT bool FabricState::try_add(const GroupRealization& group) {
  validate_realization(net_, group);
  expects(!contains(group.id), "group id already admitted");
  for (u32 m : group.members)
    expects(!busy_.test(m), "groups must be pairwise disjoint");
  if (!links_clear(group.links)) return false;
  for (u32 level = 0; level < group.links.levels(); ++level) {
    for (u32 row : group.links[level]) {
      const u32 load = load_[link_index(level, row)];
      if (load + 1 > capacity_[level]) return false;
      expect_headroom(load);
    }
  }

  for (u32 m : group.members) busy_.set(m);
  apply_load(group, true);
  // static_check: allow(hot-alloc) grows to the largest id, amortized
  if (group.id >= entries_.size()) entries_.resize(group.id + 1);
  Entry& entry = entries_[group.id];
  entry.dead_links = 0;  // links_clear above
  entry.lacks_fan = lacks_fan_for(group);
  store(entry, group);  // the admitted copy: this path's only allocations
  ++group_count_;
  CONFNET_AUDIT_HOOK(maybe_periodic_audit());
  return true;
}

CONFNET_HOT bool FabricState::try_replace(u32 id,
                                          const GroupRealization& group) {
  expects(contains(id), "replace of unknown group id");
  expects(group.id == id, "replacement must keep the group id");
  validate_realization(net_, group);
  Entry& entry = entries_[id];
  const GroupRealization& old = entry.group;

  // The whole replacement realization must avoid the fault mask (not just
  // the gained links): a successful try_ mutation never yields a degraded
  // group. Shrink paths that must tolerate degradation use replace().
  if (!links_clear(group.links)) return false;

  // Capacity and 16-bit checks on the links gained by the swap, before
  // any change.
  bool feasible = true;
  for_each_delta(group.links, old.links, [&](u32 level, u32 row) {
    const u32 load = load_[link_index(level, row)];
    if (load + 1 > capacity_[level])
      feasible = false;
    else
      expect_headroom(load);
  });
  if (!feasible) return false;

  expect_members_free(old, group);
  swap_group(entry, group, 0);  // links_clear above
  CONFNET_AUDIT_HOOK(maybe_periodic_audit());
  return true;
}

CONFNET_HOT void FabricState::replace(u32 id, const GroupRealization& group) {
  expects(contains(id), "replace of unknown group id");
  expects(group.id == id, "replacement must keep the group id");
  validate_realization(net_, group);
  Entry& entry = entries_[id];
  expect_members_free(entry.group, group);
  for_each_delta(group.links, entry.group.links, [&](u32 level, u32 row) {
    expect_headroom(load_[link_index(level, row)]);
  });
  swap_group(entry, group, dead_links_in(group.links));
  CONFNET_AUDIT_HOOK(maybe_periodic_audit());
}

void FabricState::expect_members_free(const GroupRealization& old,
                                      const GroupRealization& group) const {
  for (u32 m : group.members)
    expects(!busy_.test(m) || std::binary_search(old.members.begin(),
                                                 old.members.end(), m),
            "groups must be pairwise disjoint");
}

CONFNET_HOT void FabricState::swap_group(Entry& entry,
                                         const GroupRealization& group,
                                         u32 dead_links) {
  for (u32 m : entry.group.members) busy_.reset(m);
  for (u32 m : group.members) busy_.set(m);
  for_each_delta(group.links, entry.group.links, [&](u32 level, u32 row) {
    std::uint16_t& load = load_[link_index(level, row)];
    if (++load == capacity_[level] + 1) ++overflowing_;
  });
  for_each_delta(entry.group.links, group.links, [&](u32 level, u32 row) {
    std::uint16_t& load = load_[link_index(level, row)];
    expects(load > 0, "link load underflow");
    if (load-- == capacity_[level] + 1) --overflowing_;
  });
  entry.dead_links = dead_links;
  entry.lacks_fan = lacks_fan_for(group);
  store(entry, group);
}

CONFNET_HOT void FabricState::remove(u32 id) {
  expects(contains(id), "remove of unknown group id");
  Entry& entry = entries_[id];
  apply_load(entry.group, false);
  for (u32 m : entry.group.members) busy_.reset(m);
  entry = Entry{};  // a free entry owns no heap
  --group_count_;
  CONFNET_AUDIT_HOOK(maybe_periodic_audit());
}

CONFNET_HOT const std::vector<u32>& FabricState::count_link_users(
    u32 level, u32 row, bool failed) {
  users_scratch_.clear();
  // One channel per group per link: the link's load is its user count.
  const u32 users = load_[link_index(level, row)];
  if (users == 0) return users_scratch_;
  for (Entry& entry : entries_) {
    if (!live(entry)) continue;
    const std::span<const u32> rows = entry.group.links[level];
    if (std::binary_search(rows.begin(), rows.end(), row)) {
      if (failed)
        ++entry.dead_links;
      else
        --entry.dead_links;
      // static_check: allow(hot-alloc) capacity reused across mutations,
      // bounded by peak groups on one link
      users_scratch_.push_back(entry.group.id);
      if (users_scratch_.size() == users) break;
    }
  }
  return users_scratch_;
}

const std::vector<u32>& FabricState::fail_link(u32 level, u32 row) {
  expects(level <= net_.n() && row < net_.size(), "fail_link out of range");
  if (faults_.is_faulty(level, row)) {
    users_scratch_.clear();
    return users_scratch_;
  }
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
  CONFNET_AUDIT_HOOK(maybe_periodic_audit());
  return touched;
}

bool FabricState::group_survives(u32 id) const {
  return entry_of(id).dead_links == 0;
}

bool FabricState::links_clear(const min::LevelLinks& links) const {
  return dead_links_in(links) == 0;
}

const GroupRealization& FabricState::group(u32 id) const {
  return entry_of(id).group;
}

CONFNET_HOT u32 FabricState::dead_links_in(
    const min::LevelLinks& links) const {
  if (faults_.fault_count() == 0) return 0;
  u32 dead = 0;
  for (u32 level = 0; level < links.levels(); ++level)
    for (u32 row : links[level])
      if (faults_.is_faulty(level, row)) ++dead;
  return dead;
}

CONFNET_HOT bool FabricState::lacks_fan_for(
    const GroupRealization& g) const {
  if (fan_in_ && fan_out_) return false;
  const u32 n = net_.n();
  const auto owned = [&](u32 level, u32 row) {
    const std::span<const u32> rows = g.links[level];
    return std::binary_search(rows.begin(), rows.end(), row);
  };
  for (u32 level = 0; level <= n; ++level) {
    for (u32 row : g.links[level]) {
      if (!fan_in_ && level > 0) {
        const auto preds = net_.predecessors(level, row);
        if (owned(level - 1, preds[0]) && owned(level - 1, preds[1]))
          return true;
      }
      if (!fan_out_ && level < n) {
        const auto succs = net_.successors(level, row);
        if (owned(level + 1, succs[0]) && owned(level + 1, succs[1]))
          return true;
      }
    }
  }
  return false;
}

bool FabricState::delivery_ok() const {
  for (const Entry& entry : entries_)
    if (live(entry) && (entry.dead_links != 0 || entry.lacks_fan))
      return false;
  return true;
}

u32 FabricState::load_at(u32 level, u32 row) const {
  expects(level <= net_.n(), "level out of range");
  expects(row < net_.size(), "row out of range");
  return load_[link_index(level, row)];
}

u32 FabricState::level_peak_load(u32 level) const {
  expects(level <= net_.n(), "level out of range");
  const auto first = load_.begin() + std::ptrdiff_t{level} * net_.size();
  return *std::max_element(first, first + net_.size());
}

void FabricState::cross_check() const {
  constexpr std::string_view kSub = "fabric_state";
  const u32 N = net_.size();
  const u32 n = net_.n();

  // Recount the load matrix and overflow counter from the admitted groups.
  // Counted in u32, so a load that wrapped its 16 bits shows as divergence.
  std::vector<u32> expected_load(load_.size(), 0);  // same level-major layout
  util::DynBitset expected_busy(N);
  u32 expected_overflowing = 0;
  u32 live_groups = 0;
  for (u32 id = 0; id < entries_.size(); ++id) {
    const GroupRealization& g = entries_[id].group;
    if (!live(entries_[id])) continue;
    ++live_groups;
    audit::require(g.id == id, kSub, "entry does not name its own id");
    for (u32 level = 0; level <= n; ++level)
      for (u32 row : g.links[level]) ++expected_load[link_index(level, row)];
    for (u32 m : g.members) {
      audit::require(!expected_busy.test(m), kSub,
                     "admitted groups share a member port");
      expected_busy.set(m);
    }
  }
  audit::require(live_groups == group_count_, kSub,
                 "group count diverges from the live entries");
  for (u32 level = 0; level <= n; ++level)
    for (u32 row = 0; row < N; ++row)
      if (expected_load[link_index(level, row)] > capacity_[level])
        ++expected_overflowing;
  audit::require(std::equal(load_.begin(), load_.end(),
                            expected_load.begin(), expected_load.end()),
                 kSub, "incremental load matrix diverges from group recount");
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
  // sweep of Fabric::propagate on the same (possibly degraded) fabric. The
  // theorem needs a canonical realization, so a hand-built group whose
  // links are not exactly its member->output paths fails here.
  const Fabric oracle(
      net_, FabricConfig{std::numeric_limits<u32>::max(), fan_in_, fan_out_});
  for (const Entry& entry : entries_) {
    if (!live(entry)) continue;
#if defined(CONFNET_AUDIT)
    audit::check_group_realization(net_, entry.group);
#endif
    audit::require(entry.dead_links == dead_links_in(entry.group.links), kSub,
                   "dead-link count diverges from the fault-mask recount");
    audit::require(entry.lacks_fan == lacks_fan_for(entry.group), kSub,
                   "fan flag diverges from the group's link rows");
    const PropagationResult ref = oracle.propagate(entry.group, &faults_);
    bool exact = true;
    for (const MemberSet& heard : ref.delivered)
      if (heard.values() != entry.group.members) exact = false;
    audit::require(exact == (entry.dead_links == 0), kSub,
                   "closed-form delivery (exact iff no dead link) diverges "
                   "from Fabric::propagate: is the realization canonical?");
    // A dead link leaves the downstream switches idle, so fan ops are
    // comparable only on a healthy group.
    if (entry.dead_links == 0)
      audit::require(entry.lacks_fan == (ref.capability_violations != 0),
                     kSub,
                     "closed-form fan-capability flag diverges from "
                     "Fabric::propagate: is the realization canonical?");
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
