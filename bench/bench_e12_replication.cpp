// E12 (extension): dilation vs replication — the two fabric-side ways to
// absorb routing conflicts, compared at matched capability and by cost.
// A d-channel dilated network and a d-plane replicated network both absorb
// multiplicity-d conflicts; they differ in hardware (crossbar growth vs
// linear planes + port muxes) and in blocking under dynamic traffic.
#include "analysis/conference/replication.hpp"
#include "analysis/cost/cost.hpp"
#include "bench_common.hpp"
#include "sim/teletraffic.hpp"

namespace confnet {
namespace {

using conf::DilationProfile;
using conf::DirectConferenceNetwork;
using conf::ReplicatedConferenceNetwork;
using min::Kind;
using min::u32;

void emit_tables() {
  bench::print_header(
      "E12", "extension experiment (dilation vs vertical replication)",
      "Which fabric-side conflict absorber is cheaper and blocks less: "
      "d channels per link or d parallel planes?");

  {
    util::Table t("hardware at matched conflict capability (N=256)",
                  {"capability d", "dilated total gates",
                   "replicated total gates", "replicated/dilated"});
    const u32 n = 8;
    for (u32 d : {1u, 2u, 4u, 8u, 16u}) {
      const auto dil =
          cost::direct_cost(n, DilationProfile::uniform(n, d)).total_gates();
      const auto rep = cost::replicated_cost(n, d).total_gates();
      t.row()
          .cell(d)
          .cell(dil)
          .cell(rep)
          .cell(static_cast<double>(rep) / static_cast<double>(dil), 3);
    }
    bench::show(t);
  }

  {
    util::Table t(
        "blocking under dynamic traffic (omega, N=64, random placement, "
        "8 Erlangs of 2..8-member conferences)",
        {"capability d", "dilated P(block)", "dilated cap-blocked",
         "replicated P(block)", "replicated cap-blocked"});
    const u32 n = 6;
    for (u32 d : {1u, 2u, 4u, 8u}) {
      sim::TeletrafficConfig c;
      c.traffic.arrival_rate = 4.0;
      c.traffic.mean_holding = 2.0;
      c.traffic.min_size = 2;
      c.traffic.max_size = 8;
      c.policy = conf::PlacementPolicy::kRandom;
      c.duration = 600.0;
      c.warmup = 100.0;
      c.seed = 10408;

      DirectConferenceNetwork dil(Kind::kOmega, n,
                                  DilationProfile::uniform(n, d));
      const auto rd = sim::run_teletraffic(dil, c);
      ReplicatedConferenceNetwork rep(Kind::kOmega, n, d);
      const auto rr = sim::run_teletraffic(rep, c);
      t.row()
          .cell(d)
          .cell(rd.blocking_probability, 4)
          .cell(rd.stats.blocked_capacity)
          .cell(rr.blocking_probability, 4)
          .cell(rr.stats.blocked_capacity);
    }
    bench::show(t);
  }

  {
    util::Table t(
        "conflict-graph coloring: planes needed for random workloads "
        "(N=256, 32 conferences, 100 draws)",
        {"network", "mean colors", "max colors", "mean clique bound"});
    const u32 n = 8;
    for (Kind kind : {Kind::kOmega, Kind::kBaseline, Kind::kIndirectCube}) {
      util::Rng rng(77);
      util::RunningStats colors, cliques;
      u32 max_colors = 0;
      for (int trial = 0; trial < 100; ++trial) {
        conf::PortPlacer placer(n, conf::PlacementPolicy::kRandom);
        std::vector<std::vector<u32>> member_sets;
        for (int i = 0; i < 32; ++i)
          if (auto p = placer.place(2 + rng.below(5), rng))
            member_sets.push_back(*p);
        const conf::ConflictGraph g(kind, n, member_sets);
        const auto coloring = g.color();
        colors.add(coloring.color_count);
        cliques.add(g.clique_lower_bound());
        max_colors = std::max(max_colors, coloring.color_count);
      }
      t.row()
          .cell(std::string(min::kind_name(kind)))
          .cell(colors.mean(), 3)
          .cell(max_colors)
          .cell(cliques.mean(), 3);
    }
    bench::show(t);
  }

  std::cout
      << "Shape: replication beats dilation on hardware at every d "
         "(linear planes vs\nquadratic crossbars) but blocks slightly more "
         "at equal d (a conference must fit\nwholly inside one plane); "
         "random workloads need far fewer planes than the\nworst-case "
         "sqrt(N) — the conflict graph colors with a handful of colors.\n";
}

void BM_ConflictGraphBuild(benchmark::State& state) {
  const u32 n = static_cast<u32>(state.range(0));
  util::Rng rng(3);
  conf::PortPlacer placer(n, conf::PlacementPolicy::kRandom);
  std::vector<std::vector<u32>> member_sets;
  for (int i = 0; i < 16; ++i)
    if (auto p = placer.place(4, rng)) member_sets.push_back(*p);
  for (auto _ : state) {
    const conf::ConflictGraph g(Kind::kOmega, n, member_sets);
    benchmark::DoNotOptimize(g.color().color_count);
  }
}
BENCHMARK(BM_ConflictGraphBuild)->DenseRange(6, 10, 2);

}  // namespace
}  // namespace confnet

CONFNET_BENCH_MAIN(confnet::emit_tables)
