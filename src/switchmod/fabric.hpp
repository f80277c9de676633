// Functional switch-fabric engine.
//
// Given a network, a per-link channel capacity (dilation) and a set of
// group realizations (which links each group occupies, optionally with a
// mux relay tap level), the engine:
//   * checks channel capacity on every link (conflict detection — the
//     "multiplicity of routing conflicts" made operational),
//   * propagates combining signals level by level through fan-in/fan-out
//     switch semantics (`propagate`: one group's set-based sweep, where a
//     signal is a MemberSet and fan-in is set union),
//   * reports the delivered member set at every group output, plus fan-in /
//     fan-out operation counts for the cost discussion.
//
// The engine is deliberately independent of the conference layer: it works
// on plain `GroupRealization`s so the conference designs above it and the
// unit tests below it share one notion of "what the hardware would do".
// It is the oracle, not the live path: live admission and delivery run on
// the incremental `FabricState` (fabric_state.hpp), which is checked
// against `propagate` group by group.
//
// Observability: every evaluate() publishes per-stage link-load and
// peak-sharing observations to the `fabric` subsystem of the obs::Registry
// (histograms `fabric/link_load{level=l}` and `fabric/peak_link_load`).
// Only oracle evaluations feed them — the designs'
// `verify_delivery_reference` and the Monte-Carlo reference — so they
// cross-check the analytic conflict-multiplicity bounds of
// analysis/conference/multiplicity.hpp on the workloads those oracles
// evaluate, not on live FabricState traffic. The flattened oracle of
// `Cluster::cross_check` streams one group at a time through `propagate`
// and publishes nothing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "min/level_links.hpp"
#include "min/network.hpp"
#include "switchmod/signal.hpp"
#include "util/error.hpp"

namespace confnet::min {
class FaultSet;
}

namespace confnet::sw {

/// One group (conference) mapped onto fabric links, the oracle's input:
/// two heap blocks (members and flat link rows) whatever n is. FabricState
/// stores only the members and materializes one on demand.
struct GroupRealization {
  /// tap_level of a group whose members listen at level n.
  static constexpr u32 kNoTap = 0xffffffffu;

  u32 id = 0;
  /// Optional mux relay: every member listens to link (tap_level, its own
  /// row) instead of level n.
  u32 tap_level = kNoTap;
  /// Sorted member rows; members inject at level 0 and listen at level n
  /// (or at the relay tap).
  std::vector<u32> members;
  /// links[level] = sorted rows occupied at that level (levels 0..n).
  min::LevelLinks links;
};

/// A link where demand exceeded the channel capacity.
struct Overflow {
  u32 level;
  u32 row;
  u32 demand;  // number of groups on the link
};

/// Throws Error unless `members` is a member list on `net`: non-empty,
/// strictly increasing rows below N.
void validate_members(const min::Network& net, std::span<const u32> members);

/// Throws Error unless `group` is a well-formed realization on `net`:
/// a member list (validate_members); well-formed link
/// offsets and n+1 link levels of strictly increasing rows below N; and,
/// when tapped, a tap level <= n whose links include every member's row.
/// Untapped groups pay nothing for the tap rules.
void validate_realization(const min::Network& net,
                          const GroupRealization& group);

/// Position of `row` in sorted rows, or npos.
inline std::size_t index_of(std::span<const u32> sorted_rows, u32 row) {
  const auto it =
      std::lower_bound(sorted_rows.begin(), sorted_rows.end(), row);
  if (it == sorted_rows.end() || *it != row)
    return static_cast<std::size_t>(-1);
  return static_cast<std::size_t>(it - sorted_rows.begin());
}

/// Invoke fn(member index, level, link index) for the link each of `g`'s
/// outputs listens to: its own row at the relay tap level when tapped,
/// else at level n. `g` must pass validate_realization; an untapped member
/// whose level-n link is missing throws Error.
template <typename Fn>
void for_each_output(const GroupRealization& g, Fn&& fn) {
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  const u32 level = g.tap_level == GroupRealization::kNoTap
                        ? g.links.levels() - 1
                        : g.tap_level;
  for (std::size_t i = 0; i < g.members.size(); ++i) {
    const std::size_t li = index_of(g.links[level], g.members[i]);
    expects(li != npos, "output link is not part of the group's subnetwork");
    fn(i, level, li);
  }
}

/// What one group's propagation produces: the delivered member set at each
/// of its outputs (order of GroupRealization::members) plus the fan-op
/// accounting.
struct PropagationResult {
  std::vector<MemberSet> delivered;
  std::uint64_t fan_in_ops = 0;
  std::uint64_t fan_out_ops = 0;
  std::uint64_t capability_violations = 0;
};

struct EvalReport {
  /// delivered[g] = member sets observed at group g's member outputs, in
  /// the order of GroupRealization::members.
  std::vector<std::vector<MemberSet>> delivered;
  std::vector<Overflow> overflows;
  /// Per-level maximum number of groups sharing one link.
  std::vector<u32> max_link_load;  // indexed by level
  std::uint64_t fan_in_ops = 0;    // switch outputs that combined two inputs
  std::uint64_t fan_out_ops = 0;   // inputs duplicated to both outputs
  /// Fan-in/fan-out uses demanded from modules lacking the capability.
  std::uint64_t capability_violations = 0;
  [[nodiscard]] bool ok() const noexcept {
    return overflows.empty() && capability_violations == 0;
  }
};

struct FabricConfig {
  /// Channels per physical link (dilation). 1 = plain network.
  u32 channels_per_link = 1;
  /// Capabilities of every switch module.
  bool fan_in = true;
  bool fan_out = true;
};

class Fabric {
 public:
  Fabric(min::Network net, FabricConfig config);

  /// Evaluate a set of groups. Groups must have pairwise disjoint member
  /// sets; link sets may overlap (that is what channel capacity is for).
  /// Signals still propagate for overflowing links so callers can observe
  /// what *would* happen with enough channels; `ok()` reports feasibility.
  [[nodiscard]] EvalReport evaluate(
      const std::vector<GroupRealization>& groups) const;

  /// Degraded-fabric evaluation: a faulty link carries no signal — it
  /// neither injects, mixes, nor delivers, and a switch never duplicates
  /// into it (so fan ops are counted on the surviving wiring only). Channel
  /// load/overflow accounting is unchanged: assignments still reserve the
  /// physical link. `faults == nullptr` (or an empty set) is the healthy
  /// fabric.
  [[nodiscard]] EvalReport evaluate(const std::vector<GroupRealization>& groups,
                                    const min::FaultSet* faults) const;

  /// One group's set-based sweep: a level-0 link carries its member's own
  /// signal, each used link merges its used, live predecessors, and every
  /// output reads the link it listens to. Faults as in evaluate(); channel
  /// capacity plays no part. `group` must pass validate_realization.
  /// Publishes no metrics, so oracle checks that call it directly leave
  /// the `fabric/*` registry alone.
  [[nodiscard]] PropagationResult propagate(const GroupRealization& group,
                                            const min::FaultSet* faults) const;

  [[nodiscard]] const min::Network& network() const noexcept { return net_; }
  [[nodiscard]] const FabricConfig& config() const noexcept { return config_; }

 private:
  min::Network net_;
  FabricConfig config_;
};

}  // namespace confnet::sw
