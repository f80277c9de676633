#include "switchmod/fabric_state.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "util/audit.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/thread_annotations.hpp"

namespace confnet::sw {

namespace {
/// Index of `row` in a sorted vector, or npos.
std::size_t index_of(const std::vector<u32>& sorted_rows, u32 row) {
  const auto it =
      std::lower_bound(sorted_rows.begin(), sorted_rows.end(), row);
  if (it == sorted_rows.end() || *it != row)
    return static_cast<std::size_t>(-1);
  return static_cast<std::size_t>(it - sorted_rows.begin());
}

/// Invoke fn(level, row) for every link present in `a` but not in `b`.
template <typename Fn>
void for_each_delta(const std::vector<std::vector<u32>>& a,
                    const std::vector<std::vector<u32>>& b, Fn&& fn) {
  for (u32 level = 0; level < a.size(); ++level)
    for (u32 row : a[level])
      if (!std::binary_search(b[level].begin(), b[level].end(), row))
        fn(level, row);
}
}  // namespace

FabricState::FabricState(const min::Network& net, FabricConfig config)
    : FabricState(net,
                  std::vector<u32>(net.n() + 1, config.channels_per_link),
                  config.fan_in, config.fan_out) {}

FabricState::FabricState(const min::Network& net, std::vector<u32> capacity,
                         bool fan_in, bool fan_out)
    : net_(net),
      capacity_(std::move(capacity)),
      fan_in_(fan_in),
      fan_out_(fan_out),
      faults_(net.n()),
      load_(std::size_t{net.n() + 1} * net.size(), 0),
      owner_(net.size(), -1) {
  expects(capacity_.size() == static_cast<std::size_t>(net_.n()) + 1,
          "FabricState capacity needs n+1 levels");
  for (u32 c : capacity_)
    expects(c >= 1, "FabricState needs at least one channel per link");
}

void FabricState::validate_new_group(const GroupRealization& group) const {
  const u32 N = net_.size();
  const u32 n = net_.n();
  expects(!group.members.empty(), "group has no members");
  expects(group.links.size() == static_cast<std::size_t>(n) + 1,
          "GroupRealization must carry n+1 link levels");
  expects(std::is_sorted(group.members.begin(), group.members.end()),
          "GroupRealization members must be sorted");
  expects(group.members.back() < N, "member row out of range");
  for (u32 level = 0; level <= n; ++level) {
    const auto& rows = group.links[level];
    expects(std::is_sorted(rows.begin(), rows.end()),
            "GroupRealization link rows must be sorted");
    for (u32 r : rows) expects(r < N, "link row out of range");
  }
}

void FabricState::apply_load(const GroupRealization& group, bool add) {
  for (u32 level = 0; level < group.links.size(); ++level) {
    const u32 cap = capacity_[level];
    for (u32 row : group.links[level]) {
      u32& load = load_[link_index(level, row)];
      if (add) {
        if (++load == cap + 1) ++overflowing_;
      } else {
        expects(load > 0, "link load underflow");
        if (load-- == cap + 1) --overflowing_;
      }
    }
  }
}

u32 FabricState::occupy_slot(u32 id) {
  u32 slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<u32>(slots_.size());
    slots_.emplace_back();
    slot_gen_.push_back(0);
  }
  ++slot_gen_[slot];
  if (id >= slot_of_.size()) slot_of_.resize(id + 1, kNoSlot);
  slot_of_[id] = slot;
  // Keep live_ids_ sorted; control-plane ids are monotone, so the common
  // case is a cheap append.
  if (live_ids_.empty() || live_ids_.back() < id) {
    live_ids_.push_back(id);
  } else {
    live_ids_.insert(
        std::lower_bound(live_ids_.begin(), live_ids_.end(), id), id);
  }
  slots_[slot].id = id;
  return slot;
}

CONFNET_HOT bool FabricState::try_add(GroupRealization group) {
  validate_new_group(group);
  expects(!contains(group.id), "group id already admitted");
  for (u32 m : group.members)
    expects(owner_[m] < 0, "groups must be pairwise disjoint");
  if (!links_clear(group.links)) return false;
  for (u32 level = 0; level < group.links.size(); ++level)
    for (u32 row : group.links[level])
      if (load_[link_index(level, row)] + 1 > capacity_[level]) return false;

  for (u32 m : group.members) owner_[m] = static_cast<int>(group.id);
  apply_load(group, true);
  const u32 id = group.id;
  Entry& entry = slots_[occupy_slot(id)];
  entry.group = std::move(group);
  entry.plan.built = false;
  entry.dirty = true;
  CONFNET_AUDIT_HOOK(maybe_periodic_audit());
  return true;
}

// static_check: allow(audit-hook) delegates to replace(), which audits
CONFNET_HOT bool FabricState::try_replace(u32 id,
                                          GroupRealization group) {
  expects(contains(id), "replace of unknown group id");
  expects(group.id == id, "replacement must keep the group id");
  validate_new_group(group);
  const GroupRealization& old = slots_[slot_of_[id]].group;

  // The whole replacement realization must avoid the fault mask (not just
  // the gained links): a successful try_ mutation never yields a degraded
  // group. Shrink paths that must tolerate degradation use replace().
  if (!links_clear(group.links)) return false;

  // Capacity check on the links gained by the swap, before any change.
  bool feasible = true;
  for_each_delta(group.links, old.links, [&](u32 level, u32 row) {
    if (load_[link_index(level, row)] + 1 > capacity_[level]) feasible = false;
  });
  if (!feasible) return false;

  replace(id, std::move(group));
  return true;
}

CONFNET_HOT void FabricState::replace(u32 id, GroupRealization group) {
  expects(contains(id), "replace of unknown group id");
  expects(group.id == id, "replacement must keep the group id");
  validate_new_group(group);
  Entry& entry = slots_[slot_of_[id]];

  for (u32 m : entry.group.members) owner_[m] = -1;
  for (u32 m : group.members) {
    expects(owner_[m] < 0, "groups must be pairwise disjoint");
    owner_[m] = static_cast<int>(id);
  }
  for_each_delta(group.links, entry.group.links, [&](u32 level, u32 row) {
    u32& load = load_[link_index(level, row)];
    if (++load == capacity_[level] + 1) ++overflowing_;
  });
  for_each_delta(entry.group.links, group.links, [&](u32 level, u32 row) {
    u32& load = load_[link_index(level, row)];
    expects(load > 0, "link load underflow");
    if (load-- == capacity_[level] + 1) --overflowing_;
  });
  entry.group = std::move(group);
  entry.plan.built = false;
  entry.dirty = true;
  CONFNET_AUDIT_HOOK(maybe_periodic_audit());
}

CONFNET_HOT void FabricState::remove(u32 id) {
  expects(contains(id), "remove of unknown group id");
  const u32 slot = slot_of_[id];
  Entry& entry = slots_[slot];
  apply_load(entry.group, false);
  for (u32 m : entry.group.members) owner_[m] = -1;
  slot_of_[id] = kNoSlot;
  // static_check: allow(hot-alloc) slot free-list, bounded by peak groups
  free_slots_.push_back(slot);
  const auto it =
      std::lower_bound(live_ids_.begin(), live_ids_.end(), id);
  live_ids_.erase(it);
  CONFNET_AUDIT_HOOK(maybe_periodic_audit());
}

CONFNET_HOT const std::vector<u32>& FabricState::mark_link_users_dirty(
    u32 level, u32 row) {
  dirty_scratch_.clear();
  // One channel per group per link: the link's load is its user count.
  const u32 users = load_[link_index(level, row)];
  if (users == 0) return dirty_scratch_;
  for (u32 id : live_ids_) {
    Entry& entry = slots_[slot_of_[id]];
    const auto& rows = entry.group.links[level];
    if (std::binary_search(rows.begin(), rows.end(), row)) {
      entry.dirty = true;
      // static_check: allow(hot-alloc) capacity reused across mutations,
      // bounded by peak groups on one link
      dirty_scratch_.push_back(id);
      if (dirty_scratch_.size() == users) break;
    }
  }
  return dirty_scratch_;
}

const std::vector<u32>& FabricState::fail_link(u32 level, u32 row) {
  expects(level <= net_.n() && row < net_.size(), "fail_link out of range");
  if (faults_.is_faulty(level, row)) {
    dirty_scratch_.clear();
    return dirty_scratch_;
  }
  faults_.fail_link(level, row);
  const auto& touched = mark_link_users_dirty(level, row);
  CONFNET_AUDIT_HOOK(maybe_periodic_audit());
  return touched;
}

const std::vector<u32>& FabricState::repair_link(u32 level, u32 row) {
  expects(level <= net_.n() && row < net_.size(), "repair_link out of range");
  if (!faults_.is_faulty(level, row)) {
    dirty_scratch_.clear();
    return dirty_scratch_;
  }
  faults_.repair_link(level, row);
  const auto& touched = mark_link_users_dirty(level, row);
  CONFNET_AUDIT_HOOK(maybe_periodic_audit());
  return touched;
}

bool FabricState::group_survives(u32 id) const {
  return links_clear(entry_of(id).group.links);
}

bool FabricState::links_clear(
    const std::vector<std::vector<u32>>& links) const {
  if (faults_.fault_count() == 0) return true;
  for (u32 level = 0; level < links.size(); ++level)
    for (u32 row : links[level])
      if (faults_.is_faulty(level, row)) return false;
  return true;
}

const GroupRealization& FabricState::group(u32 id) const {
  return entry_of(id).group;
}

const std::vector<MemberSet>& FabricState::delivered(u32 id) const {
  const Entry& entry = entry_of(id);
  if (entry.dirty) propagate(entry);
  return entry.delivered;
}

bool FabricState::delivery_ok() const {
  for (u32 id : live_ids_) {
    const Entry& entry = slots_[slot_of_[id]];
    if (entry.dirty) propagate(entry);
    // delivered_exact is the plane engine's mask-row equality probe: true
    // iff every output heard exactly the full member set. No per-member
    // vector comparison on this path.
    if (entry.capability_violations != 0 || !entry.delivered_exact)
      return false;
  }
  return true;
}

void FabricState::invalidate_signal_caches() {
  for (u32 id : live_ids_) slots_[slot_of_[id]].dirty = true;
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

void FabricState::build_plan(const Entry& entry) const {
  const GroupRealization& g = entry.group;
  const u32 n = net_.n();
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  constexpr u32 absent = PropagationPlan::kAbsent;
  PropagationPlan& plan = entry.plan;

  plan.inject.assign(g.links[0].size(), absent);
  for (std::size_t i = 0; i < g.links[0].size(); ++i) {
    const std::size_t mi = index_of(g.members, g.links[0][i]);
    if (mi != npos) plan.inject[i] = static_cast<u32>(mi);
  }

  plan.preds.clear();
  plan.pred_off.assign(n + 1, 0);
  for (u32 level = 1; level <= n; ++level) {
    plan.pred_off[level] = static_cast<u32>(plan.preds.size());
    for (u32 row : g.links[level]) {
      std::array<u32, 2> pi{absent, absent};
      const auto qs = net_.predecessors(level, row);
      for (std::size_t s = 0; s < qs.size(); ++s) {
        const std::size_t idx = index_of(g.links[level - 1], qs[s]);
        if (idx != npos) pi[s] = static_cast<u32>(idx);
      }
      plan.preds.push_back(pi);
    }
  }

  plan.succs.clear();
  plan.succ_off.assign(n, 0);
  for (u32 level = 0; level < n; ++level) {
    plan.succ_off[level] = static_cast<u32>(plan.succs.size());
    for (u32 row : g.links[level]) {
      std::array<u32, 2> si{absent, absent};
      const auto qs = net_.successors(level, row);
      for (std::size_t s = 0; s < qs.size(); ++s) {
        const std::size_t idx = index_of(g.links[level + 1], qs[s]);
        if (idx != npos) si[s] = static_cast<u32>(idx);
      }
      plan.succs.push_back(si);
    }
  }

  plan.read_at.assign(g.members.size(), {0, 0});
  if (!g.taps.empty()) {
    expects(g.taps.size() == g.members.size(),
            "relay taps must cover every member");
    for (const auto& tap : g.taps) {
      const std::size_t mi = index_of(g.members, tap.output);
      expects(mi != npos, "tap output is not a member");
      expects(tap.tap_level <= n, "tap level out of range");
      const std::size_t li = index_of(g.links[tap.tap_level], tap.output);
      expects(li != npos, "tap link is not part of the group's subnetwork");
      plan.read_at[mi] = {tap.tap_level, static_cast<u32>(li)};
    }
  } else {
    for (std::size_t mi = 0; mi < g.members.size(); ++mi) {
      const std::size_t li = index_of(g.links[n], g.members[mi]);
      expects(li != npos, "member output missing from level-n links");
      plan.read_at[mi] = {n, static_cast<u32>(li)};
    }
  }
  plan.built = true;
}

void FabricState::propagate(const Entry& entry) const {
  const GroupRealization& g = entry.group;
  const u32 n = net_.n();
  // Mirror of Fabric::evaluate's degraded semantics: a faulty link is
  // signal-dead. One branch up front keeps the healthy path probe-free.
  const bool degraded = faults_.fault_count() != 0;
  const auto dead = [&](u32 level, u32 row) {
    return degraded && faults_.is_faulty(level, row);
  };
  if (!entry.plan.built) build_plan(entry);
  const PropagationPlan& plan = entry.plan;
  constexpr u32 absent = PropagationPlan::kAbsent;

  // Bitset-row layout: bit mi of a link's row = "member g.members[mi] has
  // been heard here". Fan-in is a SIMD OR of rows, the liveness flag
  // replaces the MemberSet::empty probe, and delivery reduces to an
  // equality check against the full-member mask row. All neighbour
  // positions come pre-resolved from the plan, so the sweep is straight
  // streaming over the arena.
  SignalPlane& plane = plane_;
  plane.begin_group(g.links, g.members.size());
  const auto& k = util::simd::kernels();
  const std::size_t words = plane.words();

  entry.fan_in_ops = 0;
  entry.fan_out_ops = 0;
  entry.capability_violations = 0;

  // Injection: a level-0 link carries its member's own signal.
  for (std::size_t i = 0; i < g.links[0].size(); ++i) {
    const u32 mi = plan.inject[i];
    if (mi == absent) continue;
    if (dead(0, g.links[0][i])) continue;
    plane.row(0, static_cast<u32>(i))[mi >> 6] |= std::uint64_t{1}
                                                  << (mi & 63);
    plane.mark_live(0, static_cast<u32>(i));
  }

  // Sweep forward: each used link ORs in its used, live predecessors.
  for (u32 level = 1; level <= n; ++level) {
    const std::array<u32, 2>* preds = plan.preds.data() + plan.pred_off[level];
    for (std::size_t i = 0; i < g.links[level].size(); ++i) {
      if (dead(level, g.links[level][i])) continue;  // carries nothing
      u32 feeding = 0;
      std::uint64_t* out = plane.row(level, static_cast<u32>(i));
      for (u32 pi : preds[i]) {
        if (pi == absent) continue;
        if (!plane.live(level - 1, pi)) continue;
        k.or_into(out, plane.row(level - 1, pi), words);
        ++feeding;
      }
      if (feeding > 0) plane.mark_live(level, static_cast<u32>(i));
      if (feeding == 2) {
        ++entry.fan_in_ops;
        if (!fan_in_) ++entry.capability_violations;
      }
    }
  }

  // Fan-out accounting: a used link feeding both its successors.
  for (u32 level = 0; level < n; ++level) {
    const std::array<u32, 2>* succs = plan.succs.data() + plan.succ_off[level];
    const std::vector<u32>& next_rows = g.links[level + 1];
    for (std::size_t i = 0; i < g.links[level].size(); ++i) {
      if (!plane.live(level, static_cast<u32>(i))) continue;
      u32 fed = 0;
      for (u32 si : succs[i]) {
        if (si == absent) continue;
        if (dead(level + 1, next_rows[si])) continue;  // cannot drive it
        ++fed;
      }
      if (fed == 2) {
        ++entry.fan_out_ops;
        if (!fan_out_) ++entry.capability_violations;
      }
    }
  }

  // Delivery: relay taps when present, otherwise level-n member rows —
  // both pre-resolved into plan.read_at. The mask-row equality probe feeds
  // delivery_ok's fast path; the MemberSets are still materialized (bit
  // mi -> g.members[mi], already sorted) for delivered()/report()
  // consumers.
  entry.delivered.assign(g.members.size(), MemberSet{});
  entry.delivered_exact = true;
  const std::uint64_t* mask = plane.mask_row();
  for (std::size_t mi = 0; mi < g.members.size(); ++mi) {
    const auto [level, li] = plan.read_at[mi];
    const std::uint64_t* src = plane.row(level, li);
    if (!k.rows_equal(src, mask, words)) entry.delivered_exact = false;
    std::vector<u32> heard;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = src[w];
      while (bits != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(bits));
        heard.push_back(g.members[w * 64 + bit]);
        bits &= bits - 1;
      }
    }
    entry.delivered[mi] = MemberSet(std::move(heard));
  }
  entry.dirty = false;
}

PropagationResult FabricState::propagate_reference(u32 id) const {
  const Entry& entry = entry_of(id);
  const GroupRealization& g = entry.group;
  const u32 n = net_.n();
  const bool degraded = faults_.fault_count() != 0;
  const auto dead = [&](u32 level, u32 row) {
    return degraded && faults_.is_faulty(level, row);
  };

  // The pre-plane engine, verbatim: one MemberSet per occupied link,
  // fan-in via set_union. Retained as the equivalence oracle.
  std::vector<std::vector<MemberSet>> sig(n + 1);
  for (u32 level = 0; level <= n; ++level)
    sig[level].resize(g.links[level].size());

  PropagationResult result;

  // Injection: a level-0 link carries its member's own signal.
  for (std::size_t i = 0; i < g.links[0].size(); ++i) {
    const u32 row = g.links[0][i];
    if (dead(0, row)) continue;
    if (std::binary_search(g.members.begin(), g.members.end(), row))
      sig[0][i] = MemberSet::single(row);
  }

  // Sweep forward: each used link mixes its used predecessors.
  for (u32 level = 1; level <= n; ++level) {
    for (std::size_t i = 0; i < g.links[level].size(); ++i) {
      const u32 row = g.links[level][i];
      if (dead(level, row)) continue;  // carries nothing downstream
      const auto preds = net_.predecessors(level, row);
      u32 feeding = 0;
      for (u32 q : preds) {
        const std::size_t pi = index_of(g.links[level - 1], q);
        if (pi == static_cast<std::size_t>(-1)) continue;
        if (sig[level - 1][pi].empty()) continue;
        sig[level][i].combine(sig[level - 1][pi]);
        ++feeding;
      }
      if (feeding == 2) {
        ++result.fan_in_ops;
        if (!fan_in_) ++result.capability_violations;
      }
    }
  }

  // Fan-out accounting: a used link feeding both its successors.
  for (u32 level = 0; level < n; ++level) {
    for (std::size_t i = 0; i < g.links[level].size(); ++i) {
      if (sig[level][i].empty()) continue;
      const u32 row = g.links[level][i];
      const auto succs = net_.successors(level, row);
      u32 fed = 0;
      for (u32 q : succs) {
        if (dead(level + 1, q)) continue;  // the switch cannot drive it
        if (index_of(g.links[level + 1], q) != static_cast<std::size_t>(-1))
          ++fed;
      }
      if (fed == 2) {
        ++result.fan_out_ops;
        if (!fan_out_) ++result.capability_violations;
      }
    }
  }

  // Delivery: relay taps when present, otherwise level-n member rows.
  result.delivered.assign(g.members.size(), MemberSet{});
  if (!g.taps.empty()) {
    expects(g.taps.size() == g.members.size(),
            "relay taps must cover every member");
    for (const auto& tap : g.taps) {
      const std::size_t mi = index_of(g.members, tap.output);
      expects(mi != static_cast<std::size_t>(-1), "tap output is not a member");
      expects(tap.tap_level <= n, "tap level out of range");
      const std::size_t li = index_of(g.links[tap.tap_level], tap.output);
      expects(li != static_cast<std::size_t>(-1),
              "tap link is not part of the group's subnetwork");
      result.delivered[mi] = sig[tap.tap_level][li];
    }
  } else {
    for (std::size_t mi = 0; mi < g.members.size(); ++mi) {
      const std::size_t li = index_of(g.links[n], g.members[mi]);
      expects(li != static_cast<std::size_t>(-1),
              "member output missing from level-n links");
      result.delivered[mi] = sig[n][li];
    }
  }
  return result;
}

EvalReport FabricState::report() const {
  const u32 N = net_.size();
  const u32 n = net_.n();
  EvalReport report;
  report.max_link_load.assign(n + 1, 0);
  for (u32 level = 0; level <= n; ++level) {
    for (u32 r = 0; r < N; ++r) {
      const u32 load = load_[link_index(level, r)];
      report.max_link_load[level] = std::max(report.max_link_load[level], load);
      if (load > capacity_[level])
        report.overflows.push_back(Overflow{level, r, load});
    }
  }
  report.delivered.reserve(live_ids_.size());
  for (u32 id : live_ids_) {
    const Entry& entry = slots_[slot_of_[id]];
    if (entry.dirty) propagate(entry);
    report.delivered.push_back(entry.delivered);
    report.fan_in_ops += entry.fan_in_ops;
    report.fan_out_ops += entry.fan_out_ops;
    report.capability_violations += entry.capability_violations;
  }
  return report;
}

void FabricState::cross_check() const {
  constexpr std::string_view kSub = "fabric_state";
  const u32 N = net_.size();
  const u32 n = net_.n();

  // Recount the load matrix and overflow counter from the admitted groups.
  std::vector<u32> expected_load(load_.size(), 0);  // same level-major layout
  std::vector<int> expected_owner(N, -1);
  u32 expected_overflowing = 0;
  std::vector<GroupRealization> groups;
  groups.reserve(live_ids_.size());
  for (u32 id : live_ids_) {
    const Entry& entry = slots_[slot_of_[id]];
    groups.push_back(entry.group);
    for (u32 level = 0; level <= n; ++level)
      for (u32 row : entry.group.links[level])
        ++expected_load[link_index(level, row)];
    for (u32 m : entry.group.members) {
      audit::require(expected_owner[m] < 0, kSub,
                     "admitted groups share a member port");
      expected_owner[m] = static_cast<int>(id);
    }
  }

  // Slot-table coherence: live_ids_ is sorted and duplicate-free, maps to
  // distinct live slots that name their owner back, free slots are exactly
  // the remainder, and no stale slot_of_ entry points anywhere.
  audit::require(
      std::is_sorted(live_ids_.begin(), live_ids_.end()) &&
          std::adjacent_find(live_ids_.begin(), live_ids_.end()) ==
              live_ids_.end(),
      kSub, "live id list is not sorted and unique");
  audit::require(live_ids_.size() + free_slots_.size() == slots_.size(), kSub,
                 "live and free slots do not partition the slot vector");
  std::vector<bool> slot_live(slots_.size(), false);
  for (u32 id : live_ids_) {
    audit::require(id < slot_of_.size() && slot_of_[id] != kNoSlot, kSub,
                   "live id lost its slot mapping");
    const u32 slot = slot_of_[id];
    audit::require(slot < slots_.size() && !slot_live[slot], kSub,
                   "two live ids share a slot");
    slot_live[slot] = true;
    audit::require(slots_[slot].id == id && slots_[slot].group.id == id, kSub,
                   "slot entry does not name its owning id");
    audit::require(slot_gen_.size() == slots_.size() && slot_gen_[slot] > 0,
                   kSub, "live slot was never generation-stamped");
  }
  for (u32 slot : free_slots_)
    audit::require(slot < slots_.size() && !slot_live[slot], kSub,
                   "free slot list names a live slot");
  std::size_t mapped = 0;
  for (u32 slot : slot_of_)
    if (slot != kNoSlot) ++mapped;
  audit::require(mapped == live_ids_.size(), kSub,
                 "stale id->slot mappings outlive their groups");
  for (u32 level = 0; level <= n; ++level)
    for (u32 row = 0; row < N; ++row)
      if (expected_load[link_index(level, row)] > capacity_[level])
        ++expected_overflowing;
  audit::require(load_ == expected_load, kSub,
                 "incremental load matrix diverges from group recount");
  audit::require(owner_ == expected_owner, kSub,
                 "port ownership diverges from group membership");
  audit::require(overflowing_ == expected_overflowing, kSub,
                 "overflow counter diverges from load recount");

  // The fault counter must match its own bitsets before it is trusted as
  // the degraded-evaluation fast-path gate.
  audit::require(faults_.count_consistent(), kSub,
                 "fault count diverges from the fault bitsets");

  // Pin the cached SIMD-plane results (whatever backend is active) against
  // the retained set-based path, per group: delivered sets, fan-op
  // accounting, and the mask-row delivery probe.
  for (u32 id : live_ids_) {
    const Entry& entry = slots_[slot_of_[id]];
    if (entry.dirty) propagate(entry);
    const PropagationResult ref = propagate_reference(id);
    audit::require(entry.delivered.size() == ref.delivered.size(), kSub,
                   "SIMD plane output count diverges from the set-based "
                   "reference");
    bool ref_exact = true;
    for (std::size_t mi = 0; mi < ref.delivered.size(); ++mi) {
      audit::require(
          entry.delivered[mi].values() == ref.delivered[mi].values(), kSub,
          "SIMD plane delivered signals diverge from the set-based "
          "reference");
      if (ref.delivered[mi].values() != entry.group.members) ref_exact = false;
    }
    audit::require(entry.fan_in_ops == ref.fan_in_ops &&
                       entry.fan_out_ops == ref.fan_out_ops &&
                       entry.capability_violations == ref.capability_violations,
                   kSub,
                   "SIMD plane fan-op accounting diverges from the set-based "
                   "reference");
    audit::require(entry.delivered_exact == ref_exact, kSub,
                   "mask-row delivery probe diverges from the set-based "
                   "reference");
  }

  // Full stateless evaluation with unconstrained channels: compares the
  // capacity-independent quantities (delivered signals, fan ops) on the
  // same (possibly degraded) fabric.
  const Fabric oracle(
      net_, FabricConfig{std::numeric_limits<u32>::max(), fan_in_, fan_out_});
  const EvalReport expected = oracle.evaluate(groups, &faults_);
  const EvalReport actual = report();
  audit::require(actual.delivered.size() == expected.delivered.size(), kSub,
                 "group count diverges from the stateless oracle");
  for (std::size_t gi = 0; gi < groups.size(); ++gi)
    for (std::size_t mi = 0; mi < groups[gi].members.size(); ++mi)
      audit::require(actual.delivered[gi][mi].values() ==
                         expected.delivered[gi][mi].values(),
                     kSub,
                     "incremental delivered signals diverge from the "
                     "stateless oracle");
  audit::require(actual.fan_in_ops == expected.fan_in_ops, kSub,
                 "fan-in op count diverges from the stateless oracle");
  audit::require(actual.fan_out_ops == expected.fan_out_ops, kSub,
                 "fan-out op count diverges from the stateless oracle");
  audit::require(
      actual.capability_violations == expected.capability_violations, kSub,
      "capability violation count diverges from the stateless oracle");
  audit::require(actual.max_link_load == expected.max_link_load, kSub,
                 "per-level link-load maxima diverge from the stateless "
                 "oracle");
}

void FabricState::maybe_periodic_audit() {
  // Every mutation re-checks cheap counters implicitly via apply_load's
  // contracts; the full stateless cross-check is amortized.
  if (++mutations_ % 32 == 0) audit::check_fabric_state(*this);
}

}  // namespace confnet::sw

namespace confnet::audit {

void check_fabric_state(const sw::FabricState& state) {
  for (u32 c : state.capacity_)
    require(c >= 1, "fabric_state", "capacity below one channel");
  state.cross_check();
}

}  // namespace confnet::audit
