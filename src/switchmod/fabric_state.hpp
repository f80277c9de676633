// Incremental switch-fabric evaluation.
//
// `Fabric::evaluate` rebuilds the whole (n+1)×N load matrix and every
// group's signal arrays on each call; fine for one-shot checks, quadratic
// for a teletraffic run that opens/joins/leaves/closes thousands of
// sessions. `FabricState` keeps the load matrix live and applies per-group
// deltas instead:
//   * mutations (try_add / try_replace / replace / remove) cost O(links of
//     the touched group);
//   * signal propagation is per group and lazy — a group's delivered
//     member sets are recomputed only after that group changed, which is
//     sound because signals mix only within a group's own links (the load
//     matrix is the sole cross-group coupling);
//   * capacity is per level (a dilation profile), enforced by the try_
//     mutations before any state changes.
//   * group bookkeeping is flat: entries live in a dense slot vector with
//     generation-stamped free-slot recycling, an id->slot table replaces
//     the old std::map, and a sorted id vector drives ascending-order
//     iteration — try_add/remove allocate no tree nodes on the hot path.
//   * a live fault mask (min::FaultSet) turns link failures and repairs
//     into runtime events: fail_link/repair_link dirty only the groups on
//     the touched link, admission refuses realizations over dead windows,
//     and propagation treats faulty links as signal-dead.
//   * propagation itself runs on the SignalPlane (signal_plane.hpp): each
//     occupied link's signal is a bitset row, fan-in is a SIMD OR of two
//     rows, and the delivery check is an equality probe against the
//     full-member mask — backend selected at runtime via util/simd.hpp
//     (CONFNET_SIMD=scalar|avx2|neon overrides).
//
// The stateless engine stays the oracle: `cross_check()` re-evaluates
// everything through `Fabric::evaluate` and throws on any divergence, and
// additionally pins the SIMD plane results against the retained set-based
// path (`propagate_reference`). CONFNET_AUDIT builds run it periodically
// from the mutation hooks (see audit::check_fabric_state).
#pragma once

#include <cstdint>
#include <vector>

#include "min/faults.hpp"
#include "min/network.hpp"
#include "switchmod/fabric.hpp"
#include "switchmod/signal_plane.hpp"
#include "util/error.hpp"

namespace confnet::sw {
class FabricState;
}
namespace confnet::audit {
void check_fabric_state(const sw::FabricState& state);
}

namespace confnet::sw {

/// What one group's propagation produces: the delivered member set at each
/// of its outputs plus the fan-op accounting. Returned by the retained
/// set-based oracle (`FabricState::propagate_reference`) so tests and
/// benchmarks can pin the SIMD plane engine against it.
struct PropagationResult {
  std::vector<MemberSet> delivered;
  std::uint64_t fan_in_ops = 0;
  std::uint64_t fan_out_ops = 0;
  std::uint64_t capability_violations = 0;
};

class FabricState {
 public:
  /// Uniform capacity: `config.channels_per_link` on every level.
  FabricState(const min::Network& net, FabricConfig config);
  /// Per-level capacity (levels 0..n, every entry >= 1).
  FabricState(const min::Network& net, std::vector<u32> capacity,
              bool fan_in = true, bool fan_out = true);

  FabricState(const FabricState&) = delete;
  FabricState& operator=(const FabricState&) = delete;
  FabricState(FabricState&&) = default;

  // --- Mutations (all O(links of the touched group)). -------------------

  /// Admit a group if every link it uses has a free channel. Returns false
  /// (and changes nothing) on a capacity conflict. Members must be disjoint
  /// from every admitted group's.
  [[nodiscard]] bool try_add(GroupRealization group);

  /// Atomically swap group `id` for a new realization if every link used by
  /// the new one but not the old one has a free channel. Returns false (and
  /// changes nothing) on a capacity conflict.
  [[nodiscard]] bool try_replace(u32 id, GroupRealization group);

  /// Unconditional swap (shrink paths, where the new link set cannot
  /// oversubscribe anything the old one did not).
  void replace(u32 id, GroupRealization group);

  void remove(u32 id);

  // --- Runtime fault events ----------------------------------------------
  // The fabric carries a live min::FaultSet. Failing a link invalidates
  // only the signal caches of the groups whose realization uses it (found
  // in O(groups on the link) thanks to the load matrix); load/ownership
  // accounting is untouched — a dead link still holds its channel
  // assignments until the control plane re-places the affected groups.
  // try_add / try_replace refuse realizations that touch a faulty link, so
  // a successful mutation never yields a degraded group.

  /// Mark link (level,row) faulty. Returns the ids of admitted groups whose
  /// realization uses the link, in ascending order. Idempotent: an already-
  /// faulty link returns an empty list and changes nothing. The returned
  /// reference aliases a scratch buffer that the next mutation overwrites.
  const std::vector<u32>& fail_link(u32 level, u32 row);

  /// Repair link (level,row). Returns the ids of admitted groups whose
  /// realization uses the link (their signal caches are refreshed lazily).
  /// Idempotent like fail_link; same scratch-buffer lifetime.
  const std::vector<u32>& repair_link(u32 level, u32 row);

  [[nodiscard]] bool link_faulty(u32 level, u32 row) const {
    return faults_.is_faulty(level, row);
  }
  [[nodiscard]] const min::FaultSet& faults() const noexcept { return faults_; }

  /// True iff every link of group `id`'s realization avoids the fault mask.
  [[nodiscard]] bool group_survives(u32 id) const;

  /// True iff every row of `links` (levels 0..n) avoids the fault mask.
  /// Constant-time when the fabric is healthy — the admission fast path.
  [[nodiscard]] bool links_clear(
      const std::vector<std::vector<u32>>& links) const;

  // --- Queries -----------------------------------------------------------

  [[nodiscard]] u32 group_count() const noexcept {
    return static_cast<u32>(live_ids_.size());
  }
  [[nodiscard]] bool contains(u32 id) const {
    return id < slot_of_.size() && slot_of_[id] != kNoSlot;
  }
  [[nodiscard]] const GroupRealization& group(u32 id) const;

  /// True iff no admitted group has `port` among its members.
  [[nodiscard]] bool port_free(u32 port) const {
    expects(port < owner_.size(), "port out of range");
    return owner_[port] < 0;
  }

  /// Delivered member sets at group `id`'s outputs (order of its members).
  /// Lazily re-propagated after a mutation of that group.
  [[nodiscard]] const std::vector<MemberSet>& delivered(u32 id) const;

  /// True iff every member of every group hears exactly its group's member
  /// set and no fan capability was violated. Capacity-independent, like the
  /// unlimited-channel functional check it replaces.
  [[nodiscard]] bool delivery_ok() const;

  [[nodiscard]] u32 load_at(u32 level, u32 row) const;
  /// Highest channel load currently on any link of the level.
  [[nodiscard]] u32 level_peak_load(u32 level) const;
  /// Links currently loaded beyond their capacity (0 when only try_
  /// mutations were used).
  [[nodiscard]] u32 overflowing_links() const noexcept { return overflowing_; }

  [[nodiscard]] const std::vector<u32>& capacity() const noexcept {
    return capacity_;
  }
  [[nodiscard]] const min::Network& network() const noexcept { return net_; }

  /// Visit every admitted group in ascending id order.
  template <typename Fn>
  void for_each_group(Fn&& fn) const {
    for (u32 id : live_ids_) fn(slots_[slot_of_[id]].group);
  }

  /// Assemble the same report `Fabric::evaluate` would produce for the
  /// admitted groups in ascending id order (delivered sets from the lazy
  /// caches; overflow list and per-level maxima scanned from the live load
  /// matrix). Not a hot path.
  [[nodiscard]] EvalReport report() const;

  /// Re-propagate group `id` through the retained set-based path — the
  /// pre-SIMD `MemberSet`/set_union sweep, kept verbatim as the equivalence
  /// oracle for the plane engine. Stateless with respect to the lazy
  /// caches: never reads or writes Entry::delivered. Not a hot path.
  [[nodiscard]] PropagationResult propagate_reference(u32 id) const;

  /// Drop every group's cached propagation results (marks all entries
  /// dirty). For benchmarks and backend-switch tests that need to force a
  /// full re-propagation without mutating the fabric.
  void invalidate_signal_caches();

  /// Full stateless re-evaluation through `Fabric::evaluate`; throws
  /// audit::AuditError on any divergence from the incremental state. Also
  /// pins every group's cached SIMD-plane results (delivered sets, fan
  /// ops, delivered_exact) against `propagate_reference`.
  void cross_check() const;

 private:
  friend void audit::check_fabric_state(const FabricState& state);

  /// slot_of_ sentinel: group id not admitted.
  static constexpr u32 kNoSlot = 0xffffffffu;

  /// Index-resolved traversal plan for one realization. The sweep needs,
  /// per link row, the positions of its predecessors/successors inside the
  /// neighbouring levels' row lists plus the injection and delivery
  /// positions — all pure functions of the fixed topology and the group's
  /// links, yet the set-based engine re-derived them by binary search on
  /// every re-propagation. Resolving them once per realization turns
  /// propagate() into straight streaming over the bitset rows. Rebuilt
  /// lazily on first propagate after the realization is (re)assigned.
  struct PropagationPlan {
    static constexpr u32 kAbsent = 0xffffffffu;
    bool built = false;
    /// Level-0 rows: member index whose signal enters there (kAbsent for
    /// rows that only relay).
    std::vector<u32> inject;
    /// Levels 1..n, level-major (offsets in pred_off): indices into the
    /// previous level's row list, kAbsent when the predecessor link is not
    /// part of the subnetwork.
    std::vector<std::array<u32, 2>> preds;
    std::vector<u32> pred_off;
    /// Levels 0..n-1, level-major (offsets in succ_off): indices into the
    /// next level's row list, for fan-out accounting.
    std::vector<std::array<u32, 2>> succs;
    std::vector<u32> succ_off;
    /// Per member, in realization order: (level, row index) of the link
    /// its output listens to — the relay tap when present, else level n.
    std::vector<std::pair<u32, u32>> read_at;
  };

  struct Entry {
    u32 id = 0;  // owning group id while the slot is live
    GroupRealization group;
    /// Traversal plan for `group`; built == false forces a rebuild.
    mutable PropagationPlan plan;
    // Lazy per-group evaluation results, valid when !dirty.
    mutable bool dirty = true;
    mutable std::vector<MemberSet> delivered;
    /// True iff every output heard exactly the full member set — computed
    /// by the plane engine as an equality probe against the mask row, so
    /// delivery_ok() never re-walks the materialized MemberSets.
    mutable bool delivered_exact = false;
    mutable std::uint64_t fan_in_ops = 0;
    mutable std::uint64_t fan_out_ops = 0;
    mutable std::uint64_t capability_violations = 0;
  };

  void validate_new_group(const GroupRealization& group) const;
  void apply_load(const GroupRealization& group, bool add);
  void build_plan(const Entry& entry) const;
  void propagate(const Entry& entry) const;
  void maybe_periodic_audit();
  /// Dirty every group whose realization uses link (level,row); returns
  /// their ids in ascending order. O(groups on the link): the scan stops
  /// once load_[link_index(level, row)] users have been found. Writes into
  /// dirty_scratch_ (capacity reused across mutations, CONFNET_HOT).
  const std::vector<u32>& mark_link_users_dirty(u32 level, u32 row);

  /// Take a slot for a new group: recycle the most recently freed one or
  /// grow the vectors, bump its generation, and wire up slot_of_.
  [[nodiscard]] u32 occupy_slot(u32 id);
  [[nodiscard]] const Entry& entry_of(u32 id) const {
    expects(contains(id), "unknown group id");
    return slots_[slot_of_[id]];
  }
  /// Position of link (level, row) in the level-major `load_`.
  [[nodiscard]] std::size_t link_index(u32 level, u32 row) const {
    return std::size_t{level} * net_.size() + row;
  }

  const min::Network& net_;
  std::vector<u32> capacity_;  // levels 0..n
  bool fan_in_;
  bool fan_out_;
  min::FaultSet faults_;
  // Flat group tables (see header comment): dense recycled entry slots, an
  // id->slot map, and the sorted live-id list for ordered iteration.
  // slot_of_ grows with the largest id ever admitted (4 bytes per id) —
  // ids come from monotone control-plane counters, so the table is a
  // straight array rather than a hash.
  std::vector<Entry> slots_;
  std::vector<u32> free_slots_;  // recyclable slot indices (LIFO)
  std::vector<u32> slot_of_;     // group id -> slot, kNoSlot when absent
  std::vector<u32> live_ids_;    // admitted ids, ascending
  std::vector<std::uint64_t> slot_gen_;  // occupation generation per slot
  std::vector<u32> load_;   // (n+1)·N link loads, indexed by link_index()
  std::vector<int> owner_;  // port -> group id, -1 when free
  u32 overflowing_ = 0;
  u32 mutations_ = 0;  // drives the periodic CONFNET_AUDIT cross-check
  // Bitset-row scratch arena for propagate(); holds one group at a time
  // and grows monotonically, so steady-state propagation allocates nothing.
  mutable SignalPlane plane_;
  // Reused id buffer for mark_link_users_dirty (fail/repair hot path).
  std::vector<u32> dirty_scratch_;
};

}  // namespace confnet::sw
