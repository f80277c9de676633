// E11 (extension): multicast conflict multiplicity.
//
// The other group-communication primitive: one-to-many trees with distinct
// sources and disjoint receiver sets. The conflict structure mirrors the
// conference result (min(2^l, 2^(n-l)) worst case) but multicast sharing
// saturates more slowly under random workloads because each tree touches
// only one In-window element per link.
#include <algorithm>

#include "analysis/conference/multicast.hpp"
#include "bench_common.hpp"
#include "min/windows.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace confnet {
namespace {

using conf::Multicast;
using conf::MulticastSet;
using min::Kind;
using min::u32;

void emit_tables() {
  bench::print_header(
      "E11", "extension experiment (multicast conflict multiplicity)",
      "Do one-to-many trees conflict like conferences do, and how fast does "
      "sharing grow with fan-out?");

  {
    util::Table t("adversarial multicast sharing equals the closed form",
                  {"network", "n", "level", "adversary through-link",
                   "closed form"});
    for (Kind kind : {Kind::kOmega, Kind::kBaseline, Kind::kIndirectCube}) {
      for (u32 n : {6u, 8u}) {
        for (u32 level : {1u, n / 2, n - 1}) {
          const MulticastSet set =
              conf::multicast_adversarial_set(kind, n, level, 1);
          u32 through = 0;
          for (const Multicast& m : set.multicasts())
            if (conf::multicast_uses_link(kind, n, m.source(),
                                          m.receivers(), level, 1))
              ++through;
          t.row()
              .cell(std::string(min::kind_name(kind)))
              .cell(n)
              .cell(level)
              .cell(through)
              .cell(min::r1_bound(n, level));
        }
      }
    }
    bench::show(t);
  }

  {
    util::Table t(
        "mean peak multicast link sharing vs fan-out (N=256, 16 multicasts, "
        "200 random draws)",
        {"fan-out (receivers per multicast)", "omega", "baseline", "cube"});
    const u32 n = 8;
    const u32 N = 256;
    for (u32 fanout : {1u, 2u, 4u, 8u}) {
      t.row().cell(fanout);
      for (Kind kind : {Kind::kOmega, Kind::kBaseline, Kind::kIndirectCube}) {
        util::Rng rng(31 + fanout);
        util::RunningStats peaks;
        for (int trial = 0; trial < 200; ++trial) {
          MulticastSet set(N);
          auto sources = rng.sample_distinct(N, 16);
          auto sinks = rng.sample_distinct(N, 16 * fanout);
          for (u32 i = 0; i < 16; ++i) {
            std::vector<u32> receivers(sinks.begin() + i * fanout,
                                       sinks.begin() + (i + 1) * fanout);
            std::sort(receivers.begin(), receivers.end());
            set.add(Multicast(i, sources[i], std::move(receivers)));
          }
          peaks.add(conf::measure_multicast_multiplicity(kind, n, set).peak);
        }
        t.cell(peaks.mean(), 3);
      }
    }
    bench::show(t);
  }

  std::cout << "Shape: the worst case matches conferences exactly "
               "(min(2^l, 2^(n-l))), but\nrandom multicast sharing grows "
               "with fan-out and stays far below it — one-to-many\ntraffic "
               "is gentler on the fabric than all-to-all conferencing.\n";
}

void BM_MulticastTree(benchmark::State& state) {
  const u32 n = static_cast<u32>(state.range(0));
  util::Rng rng(3);
  auto receivers = rng.sample_distinct(u32{1} << n, 16);
  std::sort(receivers.begin(), receivers.end());
  for (auto _ : state) {
    const auto tree =
        conf::multicast_tree_links(Kind::kOmega, n, 0, receivers);
    benchmark::DoNotOptimize(tree[n].size());
  }
}
BENCHMARK(BM_MulticastTree)->DenseRange(6, 14, 4);

}  // namespace
}  // namespace confnet

CONFNET_BENCH_MAIN(confnet::emit_tables)
