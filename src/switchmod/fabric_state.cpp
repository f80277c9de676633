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
/// The 16-bit guard every increment path runs before changing anything.
void expect_headroom(u32 load) {
  expects(load < FabricState::kMaxLoad,
          "link load would pass the 16-bit ceiling");
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

FabricState::FabricState(min::Network net, FabricConfig config)
    : FabricState(net,
                  std::vector<u32>(net.n() + 1, config.channels_per_link),
                  config.fan_in, config.fan_out) {}

FabricState::FabricState(min::Network net, std::vector<u32> capacity,
                         bool fan_in, bool fan_out)
    : net_(std::move(net)),
      capacity_(std::move(capacity)),
      fan_in_(fan_in),
      fan_out_(fan_out),
      faults_(net_.n()),
      load_(std::size_t{net_.n() + 1} * net_.size(), 0),
      busy_(net_.size()) {
  expects(capacity_.size() == static_cast<std::size_t>(net_.n()) + 1,
          "FabricState capacity needs n+1 levels");
  for (u32 c : capacity_)
    expects(c >= 1, "FabricState needs at least one channel per link");
}

void FabricState::apply_load(const GroupRealization& group, bool add) {
  for (u32 level = 0; level < group.links.size(); ++level) {
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

u32 FabricState::occupy_slot(u32 id) {
  u32 slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<u32>(slots_.size());
    slots_.emplace_back();
  }
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
  validate_realization(net_, group);
  expects(!contains(group.id), "group id already admitted");
  for (u32 m : group.members)
    expects(!busy_.test(m), "groups must be pairwise disjoint");
  if (!links_clear(group.links)) return false;
  for (u32 level = 0; level < group.links.size(); ++level) {
    for (u32 row : group.links[level]) {
      const u32 load = load_[link_index(level, row)];
      if (load + 1 > capacity_[level]) return false;
      expect_headroom(load);
    }
  }

  for (u32 m : group.members) busy_.set(m);
  apply_load(group, true);
  const u32 id = group.id;
  Entry& entry = slots_[occupy_slot(id)];
  entry.group = std::move(group);
  entry.dirty = true;
  CONFNET_AUDIT_HOOK(maybe_periodic_audit());
  return true;
}

CONFNET_HOT bool FabricState::try_replace(u32 id,
                                          GroupRealization group) {
  expects(contains(id), "replace of unknown group id");
  expects(group.id == id, "replacement must keep the group id");
  validate_realization(net_, group);
  Entry& entry = slots_[slot_of_[id]];
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
  swap_group(entry, std::move(group));
  CONFNET_AUDIT_HOOK(maybe_periodic_audit());
  return true;
}

CONFNET_HOT void FabricState::replace(u32 id, GroupRealization group) {
  expects(contains(id), "replace of unknown group id");
  expects(group.id == id, "replacement must keep the group id");
  validate_realization(net_, group);
  Entry& entry = slots_[slot_of_[id]];
  expect_members_free(entry.group, group);
  for_each_delta(group.links, entry.group.links, [&](u32 level, u32 row) {
    expect_headroom(load_[link_index(level, row)]);
  });
  swap_group(entry, std::move(group));
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
                                         GroupRealization group) {
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
  entry.group = std::move(group);
  entry.dirty = true;
}

CONFNET_HOT void FabricState::remove(u32 id) {
  expects(contains(id), "remove of unknown group id");
  const u32 slot = slot_of_[id];
  Entry& entry = slots_[slot];
  apply_load(entry.group, false);
  for (u32 m : entry.group.members) busy_.reset(m);
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

std::vector<MemberSet> FabricState::delivered(u32 id) const {
  const GroupRealization& g = entry_of(id).group;
  (void)propagate(g);
  return read_delivered(g);
}

const FabricState::Verdict& FabricState::verdict_of(const Entry& entry) const {
  if (entry.dirty) {
    entry.verdict = propagate(entry.group);
    entry.dirty = false;
  }
  return entry.verdict;
}

bool FabricState::delivery_ok() const {
  for (u32 id : live_ids_) {
    const Verdict& v = verdict_of(slots_[slot_of_[id]]);
    if (v.capability_violations != 0 || !v.delivered_exact) return false;
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

CONFNET_HOT FabricState::Verdict FabricState::propagate(
    const GroupRealization& g) const {
  const u32 n = net_.n();
  // Mirror of Fabric::propagate's degraded semantics: a faulty link is
  // signal-dead. One branch up front keeps the healthy path probe-free.
  const bool degraded = faults_.fault_count() != 0;
  const auto dead = [&](u32 level, u32 row) {
    return degraded && faults_.is_faulty(level, row);
  };
  constexpr u32 absent = SignalPlane::kAbsent;

  // Bitset-row layout: bit mi of a link's row = "member g.members[mi] has
  // been heard here". Fan-in is a SIMD OR of rows, the liveness flag
  // replaces the MemberSet::empty probe, and delivery reduces to an
  // equality check against the full-member mask row. Neighbours are found
  // through each stage's closed-form wiring and the plane's dense position
  // scratch, which holds the two levels a stage joins.
  SignalPlane& plane = plane_;
  plane.begin_group(g.links, g.members.size(), net_.size());
  const auto& k = util::simd::kernels();
  const std::size_t words = plane.words();
  Verdict v;

  // Injection: a level-0 link carries its member's own signal.
  plane.index_level(0, g.links[0]);
  for (std::size_t mi = 0; mi < g.members.size(); ++mi) {
    const u32 i = plane.position(0, g.members[mi]);
    if (i == absent || dead(0, g.members[mi])) continue;
    plane.row(0, i)[mi >> 6] |= std::uint64_t{1} << (mi & 63);
    plane.mark_live(0, i);
  }

  const std::vector<min::StageSpec>& stages = net_.stages();
  for (u32 level = 1; level <= n; ++level) {
    const std::vector<u32>& rows = g.links[level];
    plane.index_level(level, rows);
    // Stage `level` joins level-1 rows to level rows: a switch's outputs are
    // out_perm of one port pair, its inputs in_perm⁻¹ of the same pair.
    const min::FieldRotation out_fwd = stages[level - 1].out_perm;
    const min::FieldRotation in_inv = stages[level - 1].in_perm.inverse();
    const min::FieldRotation out_inv = out_fwd.inverse();

    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (dead(level, rows[i])) continue;  // carries nothing
      const u32 port = out_inv(rows[i]);
      // Fan-in: the link ORs in its switch's used, live inputs.
      u32 feeding = 0;
      std::uint64_t* out = plane.row(level, static_cast<u32>(i));
      for (const u32 pred : {in_inv(port & ~u32{1}), in_inv(port | 1)}) {
        const u32 pi = plane.position(level - 1, pred);
        if (pi == absent || !plane.live(level - 1, pi)) continue;
        k.or_into(out, plane.row(level - 1, pi), words);
        ++feeding;
      }
      if (feeding > 0) plane.mark_live(level, static_cast<u32>(i));
      if (feeding == 2) {
        ++v.fan_in_ops;
        if (!fan_in_) ++v.capability_violations;
      }
      // Fan-out: when both outputs of the switch are used and alive, each
      // live input drives both. Counted once per switch, at its even port.
      if ((port & 1) != 0) continue;
      const u32 sibling = out_fwd(port | 1);
      if (plane.position(level, sibling) == absent || dead(level, sibling))
        continue;
      v.fan_out_ops += feeding;
      if (!fan_out_) v.capability_violations += feeding;
    }
    plane.unindex_level(level - 1, g.links[level - 1]);
  }
  plane.unindex_level(n, g.links[n]);

  // Delivery: every output's row must equal the full-member mask row.
  v.delivered_exact = true;
  const std::uint64_t* mask = plane.mask_row();
  for_each_output(g, [&](std::size_t, u32 level, std::size_t li) {
    if (!k.rows_equal(plane.row(level, static_cast<u32>(li)), mask, words))
      v.delivered_exact = false;
  });
  return v;
}

std::vector<MemberSet> FabricState::read_delivered(
    const GroupRealization& g) const {
  // Bit mi -> g.members[mi]; members are sorted, so each set comes out
  // sorted too.
  std::vector<MemberSet> delivered(g.members.size());
  const std::size_t words = plane_.words();
  for_each_output(g, [&](std::size_t mi, u32 level, std::size_t li) {
    const std::uint64_t* src = plane_.row(level, static_cast<u32>(li));
    std::vector<u32> heard;
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = src[w]; bits != 0; bits &= bits - 1) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(bits));
        heard.push_back(g.members[w * 64 + bit]);
      }
    }
    delivered[mi] = MemberSet(std::move(heard));
  });
  return delivered;
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
  for (u32 id : live_ids_) {
    const GroupRealization& g = slots_[slot_of_[id]].group;
    for (u32 level = 0; level <= n; ++level)
      for (u32 row : g.links[level]) ++expected_load[link_index(level, row)];
    for (u32 m : g.members) {
      audit::require(!expected_busy.test(m), kSub,
                     "admitted groups share a member port");
      expected_busy.set(m);
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

  // Pin the SIMD plane (whatever backend is active) against the set-based
  // sweep of Fabric::propagate, per group, on the same (possibly degraded)
  // fabric. The cached verdict is read first (a dirty entry propagates
  // here); a fresh propagation follows. Both verdicts and the fresh
  // delivered sets must match the oracle, so a cache that a mutation or
  // fault event forgot to invalidate fails here.
  const Fabric oracle(
      net_, FabricConfig{std::numeric_limits<u32>::max(), fan_in_, fan_out_});
  for (u32 id : live_ids_) {
    const Entry& entry = slots_[slot_of_[id]];
#if defined(CONFNET_AUDIT)
    audit::check_group_realization(net_, entry.group);
#endif
    const Verdict cached = verdict_of(entry);
    const Verdict fresh = propagate(entry.group);
    const std::vector<MemberSet> delivered = read_delivered(entry.group);
    const PropagationResult ref = oracle.propagate(entry.group, &faults_);
    Verdict expected{true, ref.fan_in_ops, ref.fan_out_ops,
                     ref.capability_violations};
    for (std::size_t mi = 0; mi < ref.delivered.size(); ++mi) {
      audit::require(delivered[mi] == ref.delivered[mi], kSub,
                     "SIMD plane delivered signals diverge from the "
                     "set-based oracle");
      if (ref.delivered[mi].values() != entry.group.members)
        expected.delivered_exact = false;
    }
    audit::require(fresh == expected, kSub,
                   "SIMD plane verdict (fan ops or mask-row delivery probe) "
                   "diverges from the set-based oracle");
    audit::require(cached == expected, kSub,
                   "cached verdict is stale: it diverges from the set-based "
                   "oracle");
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
  for (u32 c : state.capacity_)
    require(c >= 1, "fabric_state", "capacity below one channel");
  state.cross_check();
}

}  // namespace confnet::audit
