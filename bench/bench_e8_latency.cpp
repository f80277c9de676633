// E8 (Figure 7): conference delivery latency and speaker dynamics.
//
// DES with talk spurts: mean stages a conference signal traverses before
// delivery (the enhanced cube exits early at its mux tap; direct designs
// always cross all n stages), carried load, and concurrent-speaker
// statistics that size the fan-in (mixing) work.
#include <cstdint>

#include "bench_common.hpp"
#include "sim/teletraffic.hpp"
#include "util/bits.hpp"

namespace confnet {
namespace {

using conf::DilationProfile;
using conf::DirectConferenceNetwork;
using conf::EnhancedCubeNetwork;
using conf::PlacementPolicy;
using min::Kind;
using min::u32;

void emit_tables() {
  bench::print_header(
      "E8", "Figure 7 (delivery latency in stages; speaker concurrency)",
      "How many stages does a conference signal traverse before delivery, "
      "and how much mixing does the fabric actually perform?");

  util::Table t("stage latency and dynamics (Poisson sessions, talk spurts)",
                {"N", "design", "mean stages", "min", "max",
                 "carried Erlangs", "mean speakers/conf", "functional ok"});
  for (u32 n : {6u, 8u}) {
    for (int design = 0; design < 2; ++design) {
      sim::TeletrafficConfig c;
      c.traffic.arrival_rate = 3.0;
      c.traffic.mean_holding = 2.0;
      c.traffic.min_size = 2;
      c.traffic.max_size = 10;
      c.policy = PlacementPolicy::kBuddy;
      c.duration = 800.0;
      c.warmup = 100.0;
      c.seed = 42;
      c.talk_spurts = true;
      c.mean_talk = 1.0;
      c.mean_silence = 2.0;
      c.verify_functional = true;
      c.verify_interval = 100.0;

      sim::TeletrafficResult r;
      std::string label;
      if (design == 0) {
        EnhancedCubeNetwork net(n);
        r = sim::run_teletraffic(net, c);
        label = "enhanced cube (mux relay)";
      } else {
        DirectConferenceNetwork net(Kind::kIndirectCube, n,
                                    DilationProfile::uniform(n, 1));
        r = sim::run_teletraffic(net, c);
        label = "direct cube d=1";
      }
      t.row()
          .cell(u32{1} << n)
          .cell(label)
          .cell(r.session_stages.mean, 4)
          .cell(r.session_stages.min, 3)
          .cell(r.session_stages.max, 3)
          .cell(r.mean_active_sessions, 4)
          .cell(r.speaker_concurrency.mean, 4)
          .cell(r.functional_ok ? "yes" : "NO");
    }
  }
  bench::show(t);

  util::Table t2("latency distribution of the enhanced cube by conference "
                 "size (tap level = ceil(log2 size) under buddy placement)",
                 {"conference size", "tap level (stages)", "direct design"});
  const u32 n = 8;
  for (u32 size : {2u, 3u, 4u, 8u, 16u, 64u}) {
    t2.row()
        .cell(size)
        .cell(util::log2_ceil(size))
        .cell(n);
  }
  bench::show(t2);

  std::cout << "Shape: the enhanced cube delivers small conferences after "
               "ceil(log2 m) stages\ninstead of n — a 4-member conference "
               "on N=256 crosses 2 stages, not 8 — at the\nprice of the "
               "output multiplexers counted in E5.\n";
}

void BM_TalkSpurtSimulation(benchmark::State& state) {
  const u32 n = static_cast<u32>(state.range(0));
  std::uint64_t seed = 9;
  for (auto _ : state) {
    EnhancedCubeNetwork net(n);
    sim::TeletrafficConfig c;
    c.traffic.arrival_rate = 2.0;
    c.duration = 100.0;
    c.warmup = 10.0;
    c.policy = PlacementPolicy::kBuddy;
    c.talk_spurts = true;
    c.seed = seed++;
    const auto r = sim::run_teletraffic(net, c);
    benchmark::DoNotOptimize(r.events);
  }
}
BENCHMARK(BM_TalkSpurtSimulation)
    ->DenseRange(5, 7, 1)
    ->Unit(benchmark::kMillisecond);

/// Steady-state teletraffic event rate at N=64 with frequent functional
/// verification through the incremental FabricState (`verify_delivery`).
/// items_per_second is the event rate. The argument is always 0 (it
/// selected the retired stateless-verify twin; kept so the row name matches
/// earlier baselines).
void BM_SteadyStateEventRate(benchmark::State& state) {
  const u32 n = 6;
  std::uint64_t seed = 17;
  std::int64_t events = 0;
  for (auto _ : state) {
    DirectConferenceNetwork net(Kind::kIndirectCube, n,
                                DilationProfile::full(n));
    sim::TeletrafficConfig c;
    c.traffic.arrival_rate = 4.0;
    c.traffic.mean_holding = 2.0;
    c.traffic.min_size = 2;
    c.traffic.max_size = 10;
    c.policy = PlacementPolicy::kRandom;
    c.duration = 200.0;
    c.warmup = 20.0;
    c.membership_churn = true;
    c.verify_functional = true;
    c.verify_interval = 0.1;
    c.seed = seed++;
    const auto r = sim::run_teletraffic(net, c);
    if (!r.functional_ok) state.SkipWithError("functional check failed");
    events += static_cast<std::int64_t>(r.events);
  }
  state.SetItemsProcessed(events);
  state.SetLabel("verify=incremental(FabricState)");
}
BENCHMARK(BM_SteadyStateEventRate)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace confnet

CONFNET_BENCH_MAIN(confnet::emit_tables)
