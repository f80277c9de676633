// E4 (Figure 4): observed peak link multiplicity vs number of simultaneous
// conferences, per topology and placement policy — the empirical view of
// R1/R2/R3: random placement climbs toward min(g, sqrt N); buddy placement
// pins the orthogonal-window topologies at 1.
#include <cstdint>

#include "analysis/conference/multiplicity.hpp"
#include "analysis/util/thread_pool.hpp"
#include "bench_common.hpp"
#include "chart.hpp"

namespace confnet {
namespace {

using conf::u32;
using min::Kind;

void emit_series(conf::PlacementPolicy policy, u32 n, u32 trials) {
  util::Table t("peak multiplicity vs #conferences — placement = " +
                    std::string(conf::placement_name(policy)) + ", N = " +
                    std::to_string(1u << n) + ", sizes 2..8, " +
                    std::to_string(trials) + " trials",
                {"#conferences g", "network", "mean peak", "p-max peak",
                 "bound min(g, 2^(n/2))"});
  // Every (g, kind) cell is an independent Monte-Carlo run: fan the combos
  // over the pool into indexed slots (each run stays serial inside, so the
  // workers are spent on whole combos), then emit rows in sweep order.
  struct Combo {
    u32 g;
    Kind kind;
  };
  std::vector<Combo> combos;
  for (u32 g : {2u, 4u, 8u, 16u, 32u}) {
    if (g * 2 > (u32{1} << n)) continue;
    for (Kind kind : min::kAllKinds) combos.push_back(Combo{g, kind});
  }
  util::ThreadPool serial(1);
  std::vector<conf::MonteCarloResult> results(combos.size());
  util::global_pool().parallel_for_chunks(
      combos.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
          results[i] = conf::monte_carlo_multiplicity(
              combos[i].kind, n, combos[i].g, 2, 8, policy, trials, 7777,
              &serial);
      });
  for (std::size_t i = 0; i < combos.size(); ++i) {
    t.row()
        .cell(combos[i].g)
        .cell(std::string(min::kind_name(combos[i].kind)))
        .cell(results[i].peak.mean(), 3)
        .cell(results[i].max_peak)
        .cell(std::min(combos[i].g, conf::theoretical_peak(n)));
  }
  bench::show(t);
}

void emit_tables() {
  bench::print_header(
      "E4", "Figure 4 (peak link multiplicity vs offered conferences)",
      "How fast do conflicts accumulate as more disjoint conferences are "
      "present, per placement policy?");
  const u32 n = 8;
  emit_series(conf::PlacementPolicy::kRandom, n, 200);
  emit_series(conf::PlacementPolicy::kFirstFit, n, 200);
  emit_series(conf::PlacementPolicy::kBuddy, n, 200);

  // Figure rendering: mean peak vs g for the cube, random vs buddy.
  std::vector<std::pair<std::string, double>> series;
  for (u32 g : {2u, 4u, 8u, 16u, 32u}) {
    const auto random = conf::monte_carlo_multiplicity(
        Kind::kIndirectCube, n, g, 2, 8, conf::PlacementPolicy::kRandom, 200,
        7777);
    const auto buddy = conf::monte_carlo_multiplicity(
        Kind::kIndirectCube, n, g, 2, 8, conf::PlacementPolicy::kBuddy, 200,
        7777);
    series.emplace_back("g=" + std::to_string(g) + " random",
                        random.peak.mean());
    series.emplace_back("g=" + std::to_string(g) + " buddy ",
                        buddy.peak.mean());
  }
  std::cout << "Figure 4 (cube, N=256): mean peak link multiplicity\n"
            << bench::bar_chart(series) << '\n';
  std::cout << "Shape: random/first-fit placement climbs with g toward the "
               "sqrt(N) ceiling for\nevery topology; buddy placement stays "
               "at 1 for omega/cube/butterfly and grows\nonly for "
               "baseline/flip — the class splits exactly as R2 predicts.\n";
}

/// Batched Monte-Carlo (64 trials per iteration) through the parallel
/// fan-out + allocation-free kernel. Per-trial time is reported via
/// items_per_second; compare against BM_MonteCarloTrialSerialReference.
void BM_MonteCarloTrial(benchmark::State& state) {
  const u32 n = static_cast<u32>(state.range(0));
  constexpr u32 kTrials = 64;
  u32 seed = 1;
  for (auto _ : state) {
    const auto mc = conf::monte_carlo_multiplicity(
        Kind::kOmega, n, (u32{1} << n) / 8, 2, 8,
        conf::PlacementPolicy::kRandom, kTrials, seed++);
    benchmark::DoNotOptimize(mc.max_peak);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kTrials);
}
BENCHMARK(BM_MonteCarloTrial)->DenseRange(6, 10, 2);

/// The pre-optimization path: single thread, per-conference row-vector
/// materialization. Same batch size, so the time ratio is the speedup.
void BM_MonteCarloTrialSerialReference(benchmark::State& state) {
  const u32 n = static_cast<u32>(state.range(0));
  constexpr u32 kTrials = 64;
  u32 seed = 1;
  for (auto _ : state) {
    const auto mc = conf::monte_carlo_multiplicity_reference(
        Kind::kOmega, n, (u32{1} << n) / 8, 2, 8,
        conf::PlacementPolicy::kRandom, kTrials, seed++);
    benchmark::DoNotOptimize(mc.max_peak);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kTrials);
}
BENCHMARK(BM_MonteCarloTrialSerialReference)->DenseRange(6, 10, 2);

}  // namespace
}  // namespace confnet

CONFNET_BENCH_MAIN(confnet::emit_tables)
