// E9 (ablation): design-choice sensitivity.
//
// (a) Placement policy: buddy vs first-fit vs random on the unit-dilation
//     cube — placement is the design choice that buys conflict-freedom.
// (b) Fan-in-tree root selection: leader (smallest member) vs middle member
//     vs per-conference random — how much of the subnetwork and of the
//     cross-conference sharing depends on root choice.
// (c) Dilation sweep: blocking vs d on random placement — how much fabric
//     buys back what placement gave away.
#include "analysis/conference/multiplicity.hpp"
#include "bench_common.hpp"
#include "conference/subnetwork.hpp"
#include "sim/teletraffic.hpp"

namespace confnet {
namespace {

using conf::DilationProfile;
using conf::DirectConferenceNetwork;
using conf::PlacementPolicy;
using min::Kind;
using min::u32;

void emit_placement_ablation() {
  util::Table t("(a) placement policy ablation — direct cube d=1, N=64",
                {"policy", "P(block)", "capacity-blocked", "placement-blocked"});
  for (PlacementPolicy policy :
       {PlacementPolicy::kBuddy, PlacementPolicy::kFirstFit,
        PlacementPolicy::kRandom}) {
    DirectConferenceNetwork net(Kind::kIndirectCube, 6,
                                DilationProfile::uniform(6, 1));
    sim::TeletrafficConfig c;
    c.traffic.arrival_rate = 3.0;
    c.traffic.mean_holding = 2.0;
    c.traffic.max_size = 8;
    c.policy = policy;
    c.duration = 600.0;
    c.warmup = 100.0;
    c.seed = 5;
    const auto r = sim::run_teletraffic(net, c);
    t.row()
        .cell(std::string(conf::placement_name(policy)))
        .cell(r.blocking_probability, 4)
        .cell(r.stats.blocked_capacity)
        .cell(r.stats.blocked_placement);
  }
  bench::show(t);
}

enum class RootPolicy { kLeader, kMiddle, kRandom };

u32 pick_root(RootPolicy policy, const std::vector<u32>& members,
              util::Rng& rng) {
  switch (policy) {
    case RootPolicy::kLeader: return members.front();
    case RootPolicy::kMiddle: return members[members.size() / 2];
    case RootPolicy::kRandom:
      return members[rng.below(members.size())];
  }
  return members.front();
}

void emit_root_ablation() {
  util::Table t(
      "(b) fan-in tree root policy ablation — omega, N=256, 16 conferences "
      "of 2..8 members, random placement, 100 trials",
      {"root policy", "mean peak tree sharing", "max", "mean links/conf"});
  const u32 n = 8;
  for (RootPolicy policy :
       {RootPolicy::kLeader, RootPolicy::kMiddle, RootPolicy::kRandom}) {
    util::Rng rng(17);
    util::RunningStats peak_stats, link_stats;
    u32 max_peak = 0;
    for (int trial = 0; trial < 100; ++trial) {
      conf::PortPlacer placer(n, PlacementPolicy::kRandom);
      std::vector<std::vector<u32>> trees_levels(n + 1);
      std::vector<u32> counts(u32{1} << n);
      u32 peak = 0;
      for (u32 cid = 0; cid < 16; ++cid) {
        const u32 size = 2 + static_cast<u32>(rng.below(7));
        auto ports = placer.place(size, rng);
        if (!ports) continue;
        const u32 root = pick_root(policy, *ports, rng);
        const auto tree = conf::fanin_tree_links(Kind::kOmega, n, *ports, root);
        link_stats.add(static_cast<double>(conf::total_links(tree)));
        for (u32 level = 1; level < n; ++level)
          for (u32 row : tree[level]) trees_levels[level].push_back(row);
      }
      for (u32 level = 1; level < n; ++level) {
        std::fill(counts.begin(), counts.end(), 0u);
        for (u32 row : trees_levels[level])
          peak = std::max(peak, ++counts[row]);
        trees_levels[level].clear();
      }
      peak_stats.add(peak);
      max_peak = std::max(max_peak, peak);
    }
    const char* name = policy == RootPolicy::kLeader   ? "leader (min member)"
                       : policy == RootPolicy::kMiddle ? "middle member"
                                                       : "random member";
    t.row()
        .cell(name)
        .cell(peak_stats.mean(), 3)
        .cell(max_peak)
        .cell(link_stats.mean(), 4);
  }
  bench::show(t);
}

void emit_dilation_ablation() {
  util::Table t("(c) dilation sweep — direct omega, random placement, N=64",
                {"dilation d", "P(block)", "capacity-blocked",
                 "total interstage channels"});
  for (u32 d : {1u, 2u, 4u, 8u}) {
    DirectConferenceNetwork net(Kind::kOmega, 6,
                                DilationProfile::uniform(6, d));
    sim::TeletrafficConfig c;
    c.traffic.arrival_rate = 3.0;
    c.traffic.mean_holding = 2.0;
    c.traffic.max_size = 8;
    c.policy = PlacementPolicy::kRandom;
    c.duration = 600.0;
    c.warmup = 100.0;
    c.seed = 5;
    const auto r = sim::run_teletraffic(net, c);
    t.row()
        .cell(d)
        .cell(r.blocking_probability, 4)
        .cell(r.stats.blocked_capacity)
        .cell(DilationProfile::uniform(6, d).total_channels());
  }
  bench::show(t);
}

void emit_tables() {
  bench::print_header(
      "E9", "ablation study (design choices of DESIGN.md)",
      "Which design decision actually buys the conflict-freedom: placement, "
      "root selection, or fabric dilation?");
  emit_placement_ablation();
  emit_root_ablation();
  emit_dilation_ablation();
  std::cout << "Shape: (a) buddy placement alone removes capacity blocking "
               "entirely; (b) root\nchoice shifts fan-in-tree sharing by "
               "~25-30% (leader roots herd trees toward\nlow outputs; "
               "middle/random roots spread them) without changing tree "
               "size; (c)\ndilation buys back random-placement conflicts "
               "with linear hardware growth.\n";
}

void BM_FanInTree(benchmark::State& state) {
  const u32 n = static_cast<u32>(state.range(0));
  util::Rng rng(3);
  auto members = rng.sample_distinct(u32{1} << n, 8);
  std::sort(members.begin(), members.end());
  for (auto _ : state) {
    const auto tree =
        conf::fanin_tree_links(Kind::kOmega, n, members, members.front());
    benchmark::DoNotOptimize(conf::total_links(tree));
  }
}
BENCHMARK(BM_FanInTree)->DenseRange(6, 14, 4);

}  // namespace
}  // namespace confnet

CONFNET_BENCH_MAIN(confnet::emit_tables)
