// Incremental switch-fabric evaluation.
//
// `Fabric::evaluate` rebuilds the whole (n+1)×N load matrix and every
// group's signal arrays on each call; fine for one-shot checks, quadratic
// for a teletraffic run that opens/joins/leaves/closes thousands of
// sessions. `FabricState` keeps the load matrix live and applies per-group
// deltas instead:
//   * mutations (try_add / try_replace / replace / remove) cost O(links of
//     the touched group);
//   * delivery is decided by theorem, not by propagating signals (DESIGN.md
//     §3, "canonical realization"): every (input, output) pair has exactly
//     one path, so a canonically realized group delivers exactly iff none
//     of its links is dead, and the fan operations it demands depend only
//     on its link rows. Each group therefore keeps a dead-link count and a
//     flag for a fan operation the fabric lacks; `delivery_ok()` reads them;
//   * capacity is per level (a dilation profile), enforced by the try_
//     mutations before any state changes.
//   * per-link and per-port tables are narrow: a link load is 16 bits and
//     port occupancy is one bit (see `load_` / `busy_` below).
//   * group bookkeeping is flat: one entry per group id, in a vector
//     indexed by the id, so a scan in index order visits groups in
//     ascending id order. The designs recycle their handles, so ids stay
//     below the peak live count. A free entry owns no heap; the mutations
//     copy a realization in only once it is admitted (reusing the entry's
//     blocks where they fit), so a refused one allocates nothing. Each
//     stored realization's link rows are one min::LevelLinks block, and
//     the walks over them (apply_load, dead_links_in, lacks_fan_for,
//     count_link_users) read spans and allocate nothing (CONFNET_HOT).
//   * a live fault mask (min::FaultSet) turns link failures and repairs
//     into runtime events: fail_link/repair_link update the dead-link
//     counts of only the groups on the touched link, and admission refuses
//     realizations over dead windows.
//
// Precondition of the shortcut: every admitted group is canonical — its
// links are exactly the union of its member->output paths (an ALL_PAIRS
// subnetwork, or the enhanced-cube realization truncated at its tap
// level). Both conference designs admit only such groups.
// A hand-built realization may be admitted (validate_realization checks
// shape, not canonicity), but its `delivery_ok()` verdict means nothing;
// ask `Fabric::propagate` instead.
//
// The stateless engine stays the oracle: `cross_check()` recounts loads,
// busy ports, overflows and dead links from the admitted groups and pins
// every group's closed-form verdict against the set-based sweep
// `Fabric::propagate`, throwing on any divergence — a non-canonical group
// fails it. CONFNET_AUDIT builds run it periodically from the mutation
// hooks (see audit::check_fabric_state).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "min/faults.hpp"
#include "min/network.hpp"
#include "switchmod/fabric.hpp"
#include "util/bitset.hpp"
#include "util/error.hpp"

namespace confnet::sw {
class FabricState;
}
namespace confnet::audit {
void check_fabric_state(const sw::FabricState& state);
}

namespace confnet::sw {

class FabricState {
 public:
  /// Ceiling of one link's load (16-bit counters). Result R1 bounds the
  /// disjoint conferences sharing a level-l link by min(2^l, 2^(n-l)), at
  /// most 2^10 for n <= 20, so only a synthetic realization can get here;
  /// every increment path refuses it with `expects` before changing state.
  static constexpr u32 kMaxLoad = 0xffffu;

  /// Uniform capacity: `config.channels_per_link` on every level. The
  /// fabric owns its network.
  FabricState(min::Network net, FabricConfig config);
  /// Per-level capacity (levels 0..n, every entry >= 1).
  FabricState(min::Network net, std::span<const u32> capacity,
              bool fan_in = true, bool fan_out = true);

  FabricState(const FabricState&) = delete;
  FabricState& operator=(const FabricState&) = delete;
  FabricState(FabricState&&) = default;

  // --- Mutations (all O(links of the touched group)). -------------------

  /// Admit a copy of `group` if every link it uses has a free channel.
  /// Returns false (and changes nothing) on a capacity conflict. Members
  /// must be disjoint from every admitted group's. Throws Error, changing
  /// nothing, when the group fails validate_realization or a link load
  /// would pass kMaxLoad.
  [[nodiscard]] bool try_add(const GroupRealization& group);

  /// Atomically swap group `id` for a copy of a new realization if every
  /// link used by the new one but not the old one has a free channel.
  /// Returns false (and changes nothing) on a capacity conflict. Throws
  /// Error, changing nothing, when the group fails validate_realization or
  /// a gained link's load would pass kMaxLoad.
  [[nodiscard]] bool try_replace(u32 id, const GroupRealization& group);

  /// Unconditional swap (shrink paths, where the new link set cannot
  /// oversubscribe anything the old one did not). Capacity is not checked,
  /// but every contract (validate_realization, disjointness, kMaxLoad) is,
  /// before anything changes.
  void replace(u32 id, const GroupRealization& group);

  void remove(u32 id);

  // --- Runtime fault events ----------------------------------------------
  // The fabric carries a live min::FaultSet. Failing or repairing a link
  // updates the dead-link counts of only the groups whose realization uses
  // it (found in O(groups on the link) thanks to the load matrix);
  // load/busy-port accounting is untouched — a dead link still holds its
  // channel assignments until the control plane re-places the affected
  // groups. try_add / try_replace refuse realizations that touch a faulty
  // link, so a successful try_ mutation never yields a degraded group;
  // replace() may (a shrink on a degraded fabric) and counts its dead links.

  /// Mark link (level,row) faulty. Returns the ids of admitted groups whose
  /// realization uses the link, in ascending order. Idempotent: an already-
  /// faulty link returns an empty list and changes nothing. The returned
  /// reference aliases a scratch buffer that the next mutation overwrites.
  const std::vector<u32>& fail_link(u32 level, u32 row);

  /// Repair link (level,row). Returns the ids of admitted groups whose
  /// realization uses the link. Idempotent like fail_link; same
  /// scratch-buffer lifetime.
  const std::vector<u32>& repair_link(u32 level, u32 row);

  [[nodiscard]] bool link_faulty(u32 level, u32 row) const {
    return faults_.is_faulty(level, row);
  }
  [[nodiscard]] const min::FaultSet& faults() const noexcept { return faults_; }

  /// True iff every link of group `id`'s realization avoids the fault mask
  /// (its dead-link count is zero). O(1).
  [[nodiscard]] bool group_survives(u32 id) const;

  /// True iff every row of `links` (levels 0..n) avoids the fault mask.
  /// Constant-time when the fabric is healthy — the admission fast path.
  [[nodiscard]] bool links_clear(const min::LevelLinks& links) const;

  // --- Queries -----------------------------------------------------------

  [[nodiscard]] u32 group_count() const noexcept { return group_count_; }
  [[nodiscard]] bool contains(u32 id) const {
    return id < entries_.size() && live(entries_[id]);
  }
  [[nodiscard]] const GroupRealization& group(u32 id) const;

  /// True iff no admitted group has `port` among its members.
  [[nodiscard]] bool port_free(u32 port) const {
    expects(port < busy_.size(), "port out of range");
    return !busy_.test(port);
  }

  /// True iff every member of every group hears exactly its group's member
  /// set and no fan capability was violated, decided from the per-group
  /// counters (canonical groups only; see the header comment).
  /// Capacity-independent, like the unlimited-channel functional check it
  /// replaces. O(groups).
  [[nodiscard]] bool delivery_ok() const;

  [[nodiscard]] u32 load_at(u32 level, u32 row) const;
  /// Highest channel load currently on any link of the level.
  [[nodiscard]] u32 level_peak_load(u32 level) const;
  /// Links currently loaded beyond their capacity (0 when only try_
  /// mutations were used).
  [[nodiscard]] u32 overflowing_links() const noexcept { return overflowing_; }

  /// Channels per link of levels 0..n.
  [[nodiscard]] std::span<const u32> capacity() const noexcept {
    return {capacity_.data(), net_.n() + 1};
  }
  [[nodiscard]] const min::Network& network() const noexcept { return net_; }

  /// Visit every admitted group in ascending id order.
  template <typename Fn>
  void for_each_group(Fn&& fn) const {
    for (const Entry& entry : entries_)
      if (live(entry)) fn(entry.group);
  }

  /// Recount loads, busy ports, overflows and per-group dead links from the
  /// admitted groups and check the entry table; then pin every group's
  /// closed-form verdict against `Fabric::propagate`: exact delivery iff no
  /// dead link, and, on a healthy group, a capability violation iff the
  /// fan flag is set. A non-canonical group fails here. Under
  /// CONFNET_AUDIT every group also runs audit::check_group_realization.
  /// Throws audit::AuditError on any divergence.
  void cross_check() const;

 private:
  friend void audit::check_fabric_state(const FabricState& state);

  struct Entry {
    GroupRealization group;  // no members while the id is free
    u32 dead_links = 0;      // links of `group` on the fault mask
    bool lacks_fan = false;  // `group` demands a fan op the fabric lacks
  };
  static_assert(sizeof(Entry) <= 64, "a fabric entry is one 64-byte record");
  [[nodiscard]] static bool live(const Entry& entry) noexcept {
    return !entry.group.members.empty();
  }

  /// Throws unless each of `group`'s members is free or one of `old`'s.
  void expect_members_free(const GroupRealization& old,
                           const GroupRealization& group) const;
  void apply_load(const GroupRealization& group, bool add);
  /// Swap `entry`'s realization for a copy of `group`, which has
  /// `dead_links` links on the fault mask: busy ports, link loads, the
  /// overflow counter and the entry's counters. Checks nothing; both
  /// replace paths check first.
  void swap_group(Entry& entry, const GroupRealization& group,
                  u32 dead_links);
  /// Copy `group` into `entry`, reusing its blocks where they fit.
  static void store(Entry& entry, const GroupRealization& group);
  /// Links of `links` (levels 0..n) on the fault mask; 0 without a look
  /// when the fabric is healthy.
  [[nodiscard]] u32 dead_links_in(const min::LevelLinks& links) const;
  /// True iff `g`'s link rows demand fan-in (a switch with both inputs
  /// owned) or fan-out (both outputs owned) from a fabric without it.
  /// False without a look when the fabric has both.
  [[nodiscard]] bool lacks_fan_for(const GroupRealization& g) const;
  void maybe_periodic_audit();
  /// Count link (level,row) in (`failed`) or out of the dead-link count of
  /// every group whose realization uses it; returns their
  /// ids in ascending order. O(groups on the link): the scan stops once
  /// load_[link_index(level, row)] users have been found. Writes into
  /// users_scratch_ (capacity reused across mutations, CONFNET_HOT).
  const std::vector<u32>& count_link_users(u32 level, u32 row, bool failed);

  [[nodiscard]] const Entry& entry_of(u32 id) const {
    expects(contains(id), "unknown group id");
    return entries_[id];
  }
  /// Position of link (level, row) in the level-major `load_`.
  [[nodiscard]] std::size_t link_index(u32 level, u32 row) const {
    return std::size_t{level} * net_.size() + row;
  }

  min::Network net_;
  std::array<u32, min::Network::kMaxStages + 1> capacity_{};  // levels 0..n
  bool fan_in_;
  bool fan_out_;
  min::FaultSet faults_;
  // Group id -> entry (see header comment). It grows with the largest id
  // ever admitted, one Entry per id.
  std::vector<Entry> entries_;
  u32 group_count_ = 0;
  // (n+1)·N link loads, indexed by link_index(). 16 bits suffice because
  // of R1 (see kMaxLoad): 2·(n+1)·N bytes, 22 KiB at N = 1024.
  std::vector<std::uint16_t> load_;
  // Port occupancy, one bit per port: set while an admitted group has the
  // port as a member. Only "is this port free" is ever asked, so no group
  // id is stored.
  util::DynBitset busy_;
  u32 overflowing_ = 0;
  u32 mutations_ = 0;  // drives the periodic CONFNET_AUDIT cross-check
  // Reused id buffer for count_link_users (fail/repair hot path).
  std::vector<u32> users_scratch_;
};

}  // namespace confnet::sw
