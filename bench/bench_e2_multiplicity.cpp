// E2 (Table 2): multiplicity of routing conflicts, arbitrary placement.
//
// The paper's key quantity: the maximum number of disjoint conferences
// competing for a single interstage link. Four independent computations are
// tabulated per topology and level: the closed form min(2^l, 2^(n-l)),
// exhaustive search over every disjoint conference set (small N), exact
// per-link packing, and the constructive adversary's measured sharing.
#include <cmath>

#include "analysis/conference/multiplicity.hpp"
#include "analysis/util/thread_pool.hpp"
#include "bench_common.hpp"
#include "conference/subnetwork.hpp"
#include "min/windows.hpp"

namespace confnet {
namespace {

using conf::u32;
using min::Kind;

void emit_tables() {
  bench::print_header(
      "E2", "Table 2 (multiplicity of routing conflicts, arbitrary placement)",
      "How many disjoint conferences can compete for one interstage link "
      "when membership is adversarial?");

  {
    util::Table t(
        "Exhaustive over ALL disjoint conference sets (N=8, every topology)",
        {"network", "level 1", "level 2", "peak", "closed form peak"});
    // The Bell-number search per topology is independent work: fan the six
    // kinds over the pool and emit rows serially in kind order.
    std::vector<conf::MultiplicityProfile> profs(min::kAllKinds.size());
    util::global_pool().parallel_for_chunks(
        min::kAllKinds.size(), [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i)
            profs[i] = conf::exhaustive_max_multiplicity(min::kAllKinds[i], 3);
        });
    for (std::size_t i = 0; i < min::kAllKinds.size(); ++i) {
      t.row()
          .cell(std::string(min::kind_name(min::kAllKinds[i])))
          .cell(profs[i].per_level[1])
          .cell(profs[i].per_level[2])
          .cell(profs[i].peak)
          .cell(conf::theoretical_peak(3));
    }
    bench::show(t);
  }

  {
    util::Table t(
        "Per-level conflict multiplicity M(l) = min(2^l, 2^(n-l)), three "
        "independent computations (omega shown; identical for the class)",
        {"n", "N", "level", "closed form", "exact packing",
         "adversary measured"});
    for (u32 n : {4u, 6u, 8u}) {
      for (u32 level = 1; level < n; ++level) {
        const u32 row = (u32{1} << n) / 3;
        const auto set =
            conf::adversarial_conference_set(Kind::kOmega, n, level, row);
        u32 through = 0;
        for (const auto& c : set.conferences())
          if (conf::uses_link(Kind::kOmega, n, c.members(), level, row))
            ++through;
        t.row()
            .cell(n)
            .cell(u32{1} << n)
            .cell(level)
            .cell(min::r1_bound(n, level))
            .cell(conf::exhaustive_link_packing(Kind::kOmega, n, level, row))
            .cell(through);
      }
    }
    bench::show(t);
  }

  {
    util::Table t(
        "Network-wide peak M = 2^floor(n/2) = Theta(sqrt N): the dilation "
        "required for nonblocking direct adoption with arbitrary placement",
        {"n", "N", "peak M (all topologies)", "sqrt(N)"});
    for (u32 n = 2; n <= 12; ++n) {
      t.row()
          .cell(n)
          .cell(u32{1} << n)
          .cell(conf::theoretical_peak(n))
          .cell(std::sqrt(static_cast<double>(u32{1} << n)), 3);
    }
    bench::show(t);
  }
}

void BM_MeasureMultiplicity(benchmark::State& state) {
  const u32 n = static_cast<u32>(state.range(0));
  const auto set = conf::adversarial_conference_set(Kind::kIndirectCube, n,
                                                    n / 2, 1);
  conf::MultiplicityScratch scratch;
  for (auto _ : state) {
    const auto prof =
        conf::measure_multiplicity(Kind::kIndirectCube, n, set, scratch);
    benchmark::DoNotOptimize(prof.peak);
  }
  state.SetLabel("conferences=" + std::to_string(set.size()));
}
BENCHMARK(BM_MeasureMultiplicity)->DenseRange(4, 10, 2);

/// The pre-optimization kernel (row-vector materialization + sort/unique
/// per conference per level), kept as a timing twin of
/// BM_MeasureMultiplicity so the artifact carries the speedup.
void BM_MeasureMultiplicityReference(benchmark::State& state) {
  const u32 n = static_cast<u32>(state.range(0));
  const auto set = conf::adversarial_conference_set(Kind::kIndirectCube, n,
                                                    n / 2, 1);
  for (auto _ : state) {
    const auto prof =
        conf::measure_multiplicity_reference(Kind::kIndirectCube, n, set);
    benchmark::DoNotOptimize(prof.peak);
  }
  state.SetLabel("conferences=" + std::to_string(set.size()));
}
BENCHMARK(BM_MeasureMultiplicityReference)->DenseRange(4, 10, 2);

void BM_AdversaryConstruction(benchmark::State& state) {
  const u32 n = static_cast<u32>(state.range(0));
  for (auto _ : state) {
    const auto set =
        conf::adversarial_conference_set(Kind::kOmega, n, n / 2, 0);
    benchmark::DoNotOptimize(set.size());
  }
}
BENCHMARK(BM_AdversaryConstruction)->DenseRange(4, 10, 2);

}  // namespace
}  // namespace confnet

CONFNET_BENCH_MAIN(confnet::emit_tables)
