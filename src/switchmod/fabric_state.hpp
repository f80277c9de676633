// Incremental switch-fabric evaluation.
//
// `Fabric::evaluate` rebuilds the whole (n+1)×N load matrix and every
// group's signal arrays on each call; fine for one-shot checks, quadratic
// for a teletraffic run that opens/joins/leaves/closes thousands of
// sessions. `FabricState` keeps the load matrix live and applies per-group
// deltas instead:
//   * a group is its member list. In a banyan network every input reaches
//     every output by one path, so a conference's ALL_PAIRS subnetwork is a
//     function of its members: the fabric derives its link rows on demand
//     (min::path_union, into reused scratch) and stores none. Each group is
//     canonical by construction (DESIGN.md §3, invariant 15): its links are
//     exactly its member->output paths or, on a relay fabric (the indirect
//     cube, fixed at construction), that realization cut at the members'
//     tap level, min::cube_tap_level, computed wherever it is read;
//   * mutations (try_add / try_replace / replace / remove) cost O(links of
//     the touched group): each derives the rows it needs once;
//   * delivery is decided by theorem, not by propagating signals: a
//     canonical group delivers exactly iff none of its links is dead. Every
//     switch module both combines and duplicates (fan-in and fan-out), as
//     in both of the paper's designs, so no fan operation can be missing.
//     Each group therefore keeps only a dead-link count; `delivery_ok()`
//     reads them;
//   * capacity is per level (a dilation profile), enforced by the try_
//     mutations before any state changes.
//   * per-link and per-port tables are narrow: a link load is 16 bits and
//     port occupancy is one bit (see `load_` / `busy_` below).
//   * group bookkeeping is flat: one 32-byte entry (member list and
//     dead-link count) per group id, in a vector indexed by the id, so a
//     scan in index order visits groups in ascending id order. The designs recycle their handles, so ids stay
//     below the peak live count. A free entry owns no heap; an admitted
//     one owns its member list, copied in only once admitted, so a
//     refusal allocates nothing and an admission at most that one block.
//     The walks over derived rows (apply_load, dead_links_in,
//     count_link_users) allocate nothing (CONFNET_HOT).
//   * a live fault mask (min::FaultSet) turns link failures and repairs
//     into runtime events: fail_link/repair_link find the groups on the
//     touched link with the O(members) window test (min::in_window /
//     out_window) and update only their dead-link counts, and admission
//     refuses groups over dead links.
//   * the cover bound decides admission while it applies (DESIGN.md R2′).
//     A group's block is the smallest aligned block enclosing its members;
//     a port's cover is the number of live groups whose block holds it. On
//     a kind with orthogonal windows a level-l link's windows are an
//     aligned block and a residue class that meet in one port, the
//     crossing port (min::crossing_port), and every group on the link has
//     a block holding it (a relay tap only cuts links away), so no link
//     carries more groups than its crossing port's cover. So while the
//     kind is orthogonal, no link is faulty and no port is covered beyond
//     the narrowest interstage capacity (`cover_limit_`), nothing can
//     refuse. In this R2 mode a mutation checks ports, copies the member
//     list, sets busy bits and moves the group's block in the port cover:
//     no rows are derived and no load table is kept. At one channel that
//     is R2 itself: groups on disjoint blocks. A try_ admission whose block
//     holds a port already covered cover_limit_ times is decided on its
//     links: only the groups whose blocks meet its own can share them, so
//     only those are derived (r2_refuses). A refusal stays in the mode; an
//     admission, or the first fail_link, leaves it: the load table is
//     allocated at that first use and filled from one derivation per live
//     group. The cover is kept outside the mode too, and a departure or
//     repair that leaves the fabric healthy with no port covered beyond
//     the limit returns to the mode (the table drops to all zero).
//
// The stateless engine stays the oracle: `cross_check()` materializes
// every group's realization, recounts loads, busy ports, overflows, dead
// links and the port cover from them (on a healthy orthogonal fabric it
// also requires every interstage load <= its crossing port's cover, in or
// out of R2 mode), and pins every group's
// closed-form verdict against the set-based sweep `Fabric::propagate`,
// throwing on any divergence. CONFNET_AUDIT builds run it periodically
// from the mutation hooks (see audit::check_fabric_state).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "min/faults.hpp"
#include "min/network.hpp"
#include "switchmod/fabric.hpp"
#include "util/bitset.hpp"
#include "util/sliced_counts.hpp"
#include "util/error.hpp"

namespace confnet::sw {
class FabricState;
}
namespace confnet::audit {
void check_fabric_state(const sw::FabricState& state);
}

namespace confnet::sw {

/// Why a FabricState try_ mutation refused, or that it did not.
enum class Admission : std::uint8_t {
  kAdmitted,
  kLinkFaulty,    // a link of the new realization is on the fault mask
  kLinkCapacity,  // a gained link has no free channel
};

class FabricState {
 public:
  /// Ceiling of one link's load (16-bit counters). The disjoint groups on a
  /// level-l link each own a member in its in-window (2^l inputs) and one
  /// in its out-window (2^(n-l) outputs), so R1 bounds the load by
  /// min(2^l, 2^(n-l)): 2^10 at most for n <= 20. Derived rows never get
  /// here, and cross_check() recounts in 32 bits.
  static constexpr u32 kMaxLoad = 0xffffu;
  static_assert(u32{1} << (min::Network::kMaxStages / 2) < kMaxLoad);

  /// Per-level capacity (levels 0..n, every entry >= 1). With `relay`
  /// (indirect cube only), every group taps its members' outputs at
  /// min::cube_tap_level(members) and its realization is cut there. The
  /// fabric owns its network.
  FabricState(min::Network net, std::span<const u32> capacity,
              bool relay = false);

  FabricState(const FabricState&) = delete;
  FabricState& operator=(const FabricState&) = delete;
  FabricState(FabricState&&) = default;

  // --- Mutations (all O(links of the touched group)). -------------------
  // `members` is a group's member list: non-empty, strictly increasing
  // rows below N (Error otherwise, changing nothing), disjoint from every
  // other admitted group's.

  /// Admit group `id` on `members` if its realization avoids the fault
  /// mask and every link it uses has a free channel; changes nothing
  /// otherwise.
  [[nodiscard]] Admission try_add(u32 id, std::span<const u32> members);

  /// Atomically swap group `id`'s members if the new
  /// realization avoids the fault mask and every link it gains has a free
  /// channel; changes nothing otherwise.
  [[nodiscard]] Admission try_replace(u32 id, std::span<const u32> members);

  /// Unconditional swap (shrink paths, where the new link set cannot
  /// oversubscribe anything the old one did not). Neither capacity nor the
  /// fault mask is checked; the new dead links are counted.
  void replace(u32 id, std::span<const u32> members);

  void remove(u32 id);

  // --- Runtime fault events ----------------------------------------------
  // The fabric carries a live min::FaultSet. Failing or repairing a link
  // updates the dead-link counts of only the groups whose realization uses
  // it; load/busy-port accounting is untouched — a dead link still holds
  // its channel assignments until the control plane re-places the affected
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

  // --- Queries -----------------------------------------------------------

  [[nodiscard]] u32 group_count() const noexcept { return group_count_; }
  [[nodiscard]] bool contains(u32 id) const {
    return id < entries_.size() && live(entries_[id]);
  }
  /// Group `id`'s sorted member list.
  [[nodiscard]] const std::vector<u32>& members(u32 id) const {
    return entry_of(id).members;
  }
  /// Group `id`'s relay tap level (GroupRealization::kNoTap when its
  /// members listen at level n).
  [[nodiscard]] u32 tap_level(u32 id) const {
    return tap_of(entry_of(id).members);
  }
  /// True iff every group is relayed out at its tap level (see the
  /// constructor); false when members listen at level n.
  [[nodiscard]] bool relays() const noexcept { return relay_; }
  /// Group `id` materialized with its derived link rows, for the oracle
  /// paths (Fabric::propagate / evaluate). Allocates.
  [[nodiscard]] GroupRealization realization(u32 id) const;

  /// True iff no admitted group has `port` among its members.
  [[nodiscard]] bool port_free(u32 port) const {
    expects(port < busy_.size(), "port out of range");
    return !busy_.test(port);
  }

  /// True iff every member of every group hears exactly its group's member
  /// set, decided from the per-group dead-link counts (see the header
  /// comment). Capacity-independent, like the unlimited-channel functional check it
  /// replaces. O(groups).
  [[nodiscard]] bool delivery_ok() const;

  /// Groups on link (level,row). In R2 mode, a recount over derived rows
  /// (allocates; the mode does not change).
  [[nodiscard]] u32 load_at(u32 level, u32 row) const;
  /// Highest channel load currently on any link of the level; a recount
  /// in R2 mode, as load_at.
  [[nodiscard]] u32 level_peak_load(u32 level) const;
  /// True while the cover bound decides admission (see the header
  /// comment): no load table is kept and no rows are derived.
  [[nodiscard]] bool r2_mode() const noexcept { return r2_; }
  /// Links currently loaded beyond their capacity (0 when only try_
  /// mutations were used).
  [[nodiscard]] u32 overflowing_links() const noexcept { return overflowing_; }

  /// Channels per link of levels 0..n.
  [[nodiscard]] std::span<const u32> capacity() const noexcept {
    return {capacity_.data(), net_.n() + 1};
  }
  /// The narrowest interstage capacity (levels 1 .. n-1), the most any
  /// port may be covered in R2 mode; u32 max when there is no interstage
  /// level (n = 1).
  [[nodiscard]] u32 cover_limit() const noexcept { return cover_limit_; }
  [[nodiscard]] const min::Network& network() const noexcept { return net_; }

  /// Visit every admitted group's id in ascending order.
  template <typename Fn>
  void for_each_group(Fn&& fn) const {
    for (u32 id = 0; id < entries_.size(); ++id)
      if (live(entries_[id])) fn(id);
  }

  /// Materialize every admitted group's realization, recount loads, busy
  /// ports, overflows, per-group dead links and the port cover from them
  /// and check the entry table and, outside R2 mode, the load table. On a
  /// healthy fabric of an orthogonal kind require every interstage load <=
  /// its crossing port's cover (the cover bound); in R2 mode also an empty
  /// fault mask and a kept cover equal to the recount, nowhere beyond the
  /// limit. Then pin
  /// every group's closed-form verdict against `Fabric::propagate`: exact
  /// delivery iff no dead link. Under CONFNET_AUDIT every group also runs
  /// audit::check_group_realization.
  /// Throws audit::AuditError on any divergence.
  void cross_check() const;

 private:
  friend void audit::check_fabric_state(const FabricState& state);

  struct Entry {
    std::vector<u32> members;  // sorted; empty while the id is free
    u32 dead_links = 0;        // links of the realization on the fault mask
  };
  static_assert(sizeof(Entry) <= 32, "a fabric entry is one 32-byte record");
  [[nodiscard]] static bool live(const Entry& entry) noexcept {
    return !entry.members.empty();
  }

  /// An aligned block of `size` ports from `first`.
  struct Block {
    u32 first;
    u32 size;
    bool operator==(const Block&) const = default;
  };
  /// The smallest aligned block enclosing sorted `members`.
  [[nodiscard]] static Block enclosing_block(std::span<const u32> members);

  /// True iff R2 can decide admission on this fabric at all: an
  /// orthogonal kind.
  [[nodiscard]] bool r2_capable() const noexcept;
  /// In R2 mode, move a group's block in the cover from that of `old`
  /// (empty for an add) to that of `members` if no port of the new block
  /// is already covered cover_limit_ times: true then. False, moving
  /// nothing, otherwise or out of the mode.
  bool r2_claim(std::span<const u32> old, std::span<const u32> members);
  /// In R2 mode, whether `members` (replacing group `self`'s, if live)
  /// would carry a link beyond its capacity: derives its rows and those of
  /// every other group whose block meets its block, the only groups that
  /// can share its links (the cover bound).
  bool r2_refuses(u32 self, std::span<const u32> members);
  /// Move a group's block in the port cover from that of `old` (empty for
  /// an add) to that of `members` (empty for a removal), unchecked.
  void move_cover(std::span<const u32> old, std::span<const u32> members);
  /// Allocate the load table at first use and fill it by deriving every
  /// live group once: R2 mode ends.
  void leave_r2();
  /// Back to R2 mode when the fabric is healthy and R2-capable and no
  /// port is covered beyond cover_limit_: each load is then within its
  /// capacity by the cover bound, and the table drops to all zero.
  void maybe_enter_r2();
  /// Every link's load recounted from derived rows, by link_index().
  [[nodiscard]] std::vector<u32> recount_loads() const;
  /// Throws unless each of `members` is free or one of `old`'s.
  void expect_members_free(std::span<const u32> old,
                           std::span<const u32> members) const;
  /// The relay tap level of `members`: kNoTap without a relay.
  [[nodiscard]] u32 tap_of(std::span<const u32> members) const;
  /// The realization of `members`, cut at its tap level, into `rows`.
  void derive(std::span<const u32> members, min::LevelLinks& rows,
              std::vector<u32>& parts) const;
  /// Derive the realization of `members` into rows_ and `entry`'s own into
  /// old_rows_.
  void derive_swap(const Entry& entry, std::span<const u32> members);
  void apply_load(const min::LevelLinks& rows, bool add);
  /// Swap `entry` for `members`, whose realization is rows_ with
  /// `dead_links` links on the fault mask, from the one in old_rows_: busy
  /// ports, link loads, the overflow counter and the entry (the cover has
  /// moved already); in R2 mode no load moves and no rows are read.
  /// Checks nothing; both replace paths check first.
  void swap_group(Entry& entry, std::span<const u32> members, u32 dead_links);
  /// Links of `rows` (levels 0..n) on the fault mask; 0 without a look
  /// when the fabric is healthy.
  [[nodiscard]] u32 dead_links_in(const min::LevelLinks& rows) const;
  void maybe_periodic_audit();
  /// Count link (level,row) in (`failed`) or out of the dead-link count of
  /// every group whose realization uses it; returns their ids in ascending
  /// order. O(members of the groups scanned): the scan stops once
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
  bool relay_;
  min::FaultSet faults_;
  // Group id -> entry (see header comment). It grows with the largest id
  // ever admitted, one Entry per id.
  std::vector<Entry> entries_;
  u32 group_count_ = 0;
  // (n+1)·N link loads, indexed by link_index(). 16 bits suffice because
  // of R1 (see kMaxLoad): 2·(n+1)·N bytes, 22 KiB at N = 1024. Allocated
  // when the fabric first leaves R2 mode (at construction on a fabric
  // that can never be in it); all zero while in R2 mode.
  std::vector<std::uint16_t> load_;
  // Port occupancy, one bit per port: set while an admitted group has the
  // port as a member. Only "is this port free" is ever asked, so no group
  // id is stored.
  util::DynBitset busy_;
  // R2 mode (see the header comment) and each port's cover, the live
  // groups whose block holds it, kept in and out of the mode in
  // bit_width(N) bit planes (no cover exceeds the group count); empty on a
  // fabric that is not r2_capable(). cover_limit_ is the narrowest
  // interstage capacity, which no cover exceeds in the mode.
  bool r2_ = false;
  util::SlicedCounts cover_;
  u32 cover_limit_ = std::numeric_limits<u32>::max();
  u32 overflowing_ = 0;
  u32 mutations_ = 0;  // drives the periodic CONFNET_AUDIT cross-check
  // Reused id buffer for count_link_users (fail/repair hot path).
  std::vector<u32> users_scratch_;
  // Per row of rows_, the other groups r2_refuses() found on it.
  std::vector<u32> row_users_;
  // Derivation scratch, reused across mutations: the new realization's
  // rows, the old one's (replace paths) and the path-union parts.
  min::LevelLinks rows_;
  min::LevelLinks old_rows_;
  std::vector<u32> parts_;
};

}  // namespace confnet::sw
