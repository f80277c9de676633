#include "switchmod/fabric.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <string>

#include "min/faults.hpp"
#include "util/audit.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace confnet::sw {

namespace {
/// True iff `rows` is strictly increasing (sorted, duplicate-free).
bool strictly_increasing(std::span<const u32> rows) {
  return std::adjacent_find(rows.begin(), rows.end(),
                            std::greater_equal<>()) == rows.end();
}

/// Shared observability handles for every Fabric instance. The
/// `peak_link_load` histogram is the dynamic face of the paper's conflict
/// multiplicity: its max must stay within R1's bound `min::r1_bound` for
/// the group sets evaluated (oracle checks only; live FabricState traffic
/// never reaches it).
struct FabricMetrics {
  obs::Counter& evaluations =
      obs::Registry::global().counter("fabric", "evaluations");
  obs::Counter& overflow_links =
      obs::Registry::global().counter("fabric", "overflow_links");
  obs::Counter& fan_in_ops =
      obs::Registry::global().counter("fabric", "fan_in_ops");
  obs::Counter& fan_out_ops =
      obs::Registry::global().counter("fabric", "fan_out_ops");
  obs::Counter& capability_violations =
      obs::Registry::global().counter("fabric", "capability_violations");
  obs::Histogram& peak_link_load = obs::Registry::global().histogram(
      "fabric", "peak_link_load", obs::linear_buckets(1.0, 1.0, 32));
  /// Lazily resolved per-level link_load handles, so the evaluate hot path
  /// never pays the "level=..." string build + registry mutex again.
  /// Registry handles are stable, so the benign double-resolve race stores
  /// the same pointer.
  std::array<std::atomic<obs::Histogram*>, 21> link_load{};

  obs::Histogram& link_load_at(u32 level) {
    obs::Histogram* h = link_load[level].load(std::memory_order_acquire);
    if (h == nullptr) {
      h = &obs::Registry::global().histogram(
          "fabric", "link_load", obs::linear_buckets(1.0, 1.0, 32),
          "level=" + std::to_string(level));
      link_load[level].store(h, std::memory_order_release);
    }
    return *h;
  }

  static FabricMetrics& get() {
    static FabricMetrics m;
    return m;
  }
};

/// Record the per-evaluate observations (called once per evaluate()).
void publish_fabric_observations(const EvalReport& report, u32 n) {
  FabricMetrics& m = FabricMetrics::get();
  m.evaluations.add();
  m.overflow_links.add(report.overflows.size());
  m.fan_in_ops.add(report.fan_in_ops);
  m.fan_out_ops.add(report.fan_out_ops);
  m.capability_violations.add(report.capability_violations);
  u32 peak = 0;
  for (u32 level = 1; level < n; ++level) {
    peak = std::max(peak, report.max_link_load[level]);
    m.link_load_at(level).observe(report.max_link_load[level]);
  }
  m.peak_link_load.observe(peak);
  obs::trace_emit("fabric", "evaluate", peak);
}
}  // namespace

Fabric::Fabric(min::Network net, FabricConfig config)
    : net_(net), config_(config) {
  expects(config_.channels_per_link >= 1,
          "Fabric needs at least one channel per link");
}

EvalReport Fabric::evaluate(const std::vector<GroupRealization>& groups) const {
  return evaluate(groups, nullptr);
}

EvalReport Fabric::evaluate(const std::vector<GroupRealization>& groups,
                            const min::FaultSet* faults) const {
  const u32 N = net_.size();
  const u32 n = net_.n();

#if defined(CONFNET_AUDIT)
  for (const auto& g : groups) audit::check_group_realization(net_, g);
#endif

  // --- Validation: well-formed groups with disjoint members. ---
  {
    std::vector<int> owner(N, -1);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      validate_realization(net_, groups[g]);
      for (u32 m : groups[g].members) {
        expects(owner[m] < 0, "conferences must be pairwise disjoint");
        owner[m] = static_cast<int>(g);
      }
    }
  }

  EvalReport report;
  report.max_link_load.assign(n + 1, 0);

  // --- Channel accounting: one level-major (n+1)·N load table. ---
  std::vector<u32> load(std::size_t{n + 1} * N, 0);
  for (const auto& g : groups)
    for (u32 level = 0; level <= n; ++level)
      for (u32 r : g.links[level]) ++load[std::size_t{level} * N + r];
  for (u32 level = 0; level <= n; ++level) {
    for (u32 r = 0; r < N; ++r) {
      const u32 l = load[std::size_t{level} * N + r];
      report.max_link_load[level] = std::max(report.max_link_load[level], l);
      if (l > config_.channels_per_link)
        report.overflows.push_back(Overflow{level, r, l});
    }
  }

  // --- Signal propagation, group by group. ---
  report.delivered.reserve(groups.size());
  for (const auto& g : groups) {
    PropagationResult result = propagate(g, faults);
    report.delivered.push_back(std::move(result.delivered));
    report.fan_in_ops += result.fan_in_ops;
    report.fan_out_ops += result.fan_out_ops;
    report.capability_violations += result.capability_violations;
  }

  publish_fabric_observations(report, n);
  return report;
}

PropagationResult Fabric::propagate(const GroupRealization& g,
                                    const min::FaultSet* faults) const {
  const u32 n = net_.n();
  if (faults != nullptr)
    expects(faults->n() == n, "fault set size mismatch");
  // One branch up front keeps the healthy sweep free of per-link fault
  // probes.
  const bool degraded = faults != nullptr && faults->fault_count() != 0;
  const auto dead = [&](u32 level, u32 row) {
    return degraded && faults->is_faulty(level, row);
  };
  constexpr std::size_t npos = static_cast<std::size_t>(-1);

  // One signal per used link, laid out like the link rows themselves.
  std::vector<MemberSet> sig(g.links.base(n + 1));
  const auto at = [&](u32 level, std::size_t i) -> MemberSet& {
    return sig[g.links.base(level) + i];
  };
  PropagationResult result;

  // Injection: a level-0 link carries its member's own signal.
  for (std::size_t i = 0; i < g.links[0].size(); ++i) {
    const u32 row = g.links[0][i];
    if (dead(0, row)) continue;
    if (std::binary_search(g.members.begin(), g.members.end(), row))
      at(0, i) = MemberSet::single(row);
  }

  // Sweep forward: each used link mixes its used predecessors.
  for (u32 level = 1; level <= n; ++level) {
    const min::StageSpec stage = net_.stage(level - 1);
    for (std::size_t i = 0; i < g.links[level].size(); ++i) {
      const u32 row = g.links[level][i];
      if (dead(level, row)) continue;  // carries nothing downstream
      u32 feeding = 0;
      for (u32 q : stage.predecessors(row)) {
        const std::size_t pi = index_of(g.links[level - 1], q);
        if (pi == npos || at(level - 1, pi).empty()) continue;
        at(level, i).combine(at(level - 1, pi));
        ++feeding;
      }
      if (feeding == 2) {
        ++result.fan_in_ops;
        if (!config_.fan_in) ++result.capability_violations;
      }
    }
  }

  // Fan-out accounting: a used link feeding both its successors.
  for (u32 level = 0; level < n; ++level) {
    const min::StageSpec stage = net_.stage(level);
    for (std::size_t i = 0; i < g.links[level].size(); ++i) {
      if (at(level, i).empty()) continue;
      u32 fed = 0;
      for (u32 q : stage.successors(g.links[level][i])) {
        if (dead(level + 1, q)) continue;  // the switch cannot drive it
        if (index_of(g.links[level + 1], q) != npos) ++fed;
      }
      if (fed == 2) {
        ++result.fan_out_ops;
        if (!config_.fan_out) ++result.capability_violations;
      }
    }
  }

  // Delivery: the relay tap level when present, otherwise level n.
  result.delivered.resize(g.members.size());
  for_each_output(g, [&](std::size_t mi, u32 level, std::size_t li) {
    result.delivered[mi] = at(level, li);
  });
  return result;
}

void validate_members(const min::Network& net, std::span<const u32> members) {
  expects(!members.empty(), "group has no members");
  expects(strictly_increasing(members),
          "group members must be sorted and distinct");
  expects(members.back() < net.size(), "member row out of range");
}

void validate_realization(const min::Network& net,
                          const GroupRealization& group) {
  const u32 N = net.size();
  const u32 n = net.n();
  validate_members(net, group.members);
  expects(group.links.well_formed(),
          "GroupRealization link offsets are malformed");
  expects(group.links.levels() == n + 1,
          "GroupRealization must carry n+1 link levels");
  for (u32 level = 0; level <= n; ++level) {
    const std::span<const u32> rows = group.links[level];
    expects(strictly_increasing(rows),
            "GroupRealization link rows must be sorted and distinct");
    expects(rows.empty() || rows.back() < N, "link row out of range");
  }
  if (group.tap_level == GroupRealization::kNoTap) return;
  expects(group.tap_level <= n, "tap level out of range");
  for (u32 m : group.members)
    expects(index_of(group.links[group.tap_level], m) !=
                static_cast<std::size_t>(-1),
            "tap link is not part of the group's subnetwork");
}

}  // namespace confnet::sw

namespace confnet::audit {

void check_group_realization(const min::Network& net,
                             const sw::GroupRealization& group) {
  constexpr std::string_view kSub = "switchmod";
  using sw::u32;
  const u32 N = net.size();
  const u32 n = net.n();
  require(!group.members.empty(), kSub, "group has no members");
  check_rows(group.members, N, kSub);
  require(group.links.well_formed() && group.links.levels() == n + 1, kSub,
          "group link set has wrong level count");
  for (u32 level = 0; level <= n; ++level)
    check_rows(group.links[level], N, kSub);
  // Members inject at level 0 on their own rows.
  for (u32 m : group.members)
    require(std::binary_search(group.links[0].begin(), group.links[0].end(), m),
            kSub, "member missing from the level-0 link set");
  // Flow-graph shape: every used interstage link is fed by a used
  // predecessor — a switch never invents a signal, and fan-in only merges
  // links the group actually owns (the conference merge).
  for (u32 level = 1; level <= n; ++level) {
    if (group.links[level].empty()) continue;
    const min::StageSpec stage = net.stage(level - 1);
    for (u32 row : group.links[level]) {
      const auto preds = stage.predecessors(row);
      const bool fed =
          std::binary_search(group.links[level - 1].begin(),
                             group.links[level - 1].end(), preds[0]) ||
          std::binary_search(group.links[level - 1].begin(),
                             group.links[level - 1].end(), preds[1]);
      require(fed, kSub, "interstage link with no feeding predecessor");
    }
  }
  // A relay tap sits at a legal level on links the group owns.
  if (group.tap_level != sw::GroupRealization::kNoTap) {
    require(group.tap_level <= n, kSub, "tap level out of range");
    const auto taps = group.links[group.tap_level];
    for (u32 m : group.members)
      require(std::binary_search(taps.begin(), taps.end(), m), kSub,
              "tap points at a link outside the group's subnetwork");
  }
}

}  // namespace confnet::audit
