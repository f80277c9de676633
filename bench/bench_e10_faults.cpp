// E10 (extension): fault tolerance of conference networks.
//
// Unique-path (banyan) fabrics have zero path diversity, so the paper's
// designs inherit a fragility the original evaluation never quantified.
// This experiment measures (a) pair connectivity and (b) conference
// survival probability vs random interstage link fault rate, per topology
// and conference size — and shows the enhanced cube's aligned realization
// shrinking the fault blast radius for small conferences.
#include <algorithm>
#include <cmath>

#include "bench_common.hpp"
#include "conference/subnetwork.hpp"
#include "min/faults.hpp"
#include "sim/teletraffic.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace confnet {
namespace {

using min::FaultSet;
using min::Kind;
using min::u32;

void emit_tables() {
  bench::print_header(
      "E10", "extension experiment (fault tolerance)",
      "How quickly do random link faults destroy pair connectivity and "
      "live conferences in a unique-path fabric?");

  {
    util::Table t("pair connectivity vs link fault rate (N=64, mean of 50 "
                  "fault draws)",
                  {"fault rate", "omega", "baseline", "cube", "analytic "
                  "(1-p)^(n-1)"});
    const u32 n = 6;
    for (double p : {0.001, 0.005, 0.01, 0.02, 0.05}) {
      util::RunningStats per_kind[3];
      const Kind kinds[3] = {Kind::kOmega, Kind::kBaseline,
                             Kind::kIndirectCube};
      for (int k = 0; k < 3; ++k) {
        util::Rng rng(1234 + k);
        for (int trial = 0; trial < 50; ++trial) {
          FaultSet faults(n);
          faults.inject_random(p, rng);
          per_kind[k].add(min::connectivity(kinds[k], n, faults));
        }
      }
      // Each pair's path crosses n-1 interstage links, each up with
      // probability 1-p.
      const double analytic = std::pow(1.0 - p, n - 1);
      t.row()
          .cell(p, 4)
          .cell(per_kind[0].mean(), 4)
          .cell(per_kind[1].mean(), 4)
          .cell(per_kind[2].mean(), 4)
          .cell(analytic, 4);
    }
    bench::show(t);
  }

  {
    util::Table t(
        "conference survival vs fault rate and size (cube, N=256, random "
        "members, 400 draws)",
        {"fault rate", "size 2", "size 4", "size 16", "size 64"});
    const u32 n = 8;
    for (double p : {0.001, 0.005, 0.01, 0.02}) {
      t.row().cell(p, 4);
      for (u32 size : {2u, 4u, 16u, 64u}) {
        util::Rng rng(99);
        u32 alive = 0;
        constexpr int kTrials = 400;
        for (int trial = 0; trial < kTrials; ++trial) {
          FaultSet faults(n);
          faults.inject_random(p, rng);
          auto members = rng.sample_distinct(u32{1} << n, size);
          std::sort(members.begin(), members.end());
          alive += min::conference_survives(Kind::kIndirectCube, n, members,
                                            faults);
        }
        t.cell(static_cast<double>(alive) / kTrials, 4);
      }
    }
    bench::show(t);
  }

  {
    util::Table t(
        "blast radius: links at risk per conference realization (N=256)",
        {"conference", "direct (all stages) links",
         "enhanced (tap-trimmed) links", "reduction"});
    const u32 n = 8;
    struct Case {
      const char* label;
      std::vector<u32> members;
    };
    const std::vector<Case> cases{
        {"aligned pair {8,9}", {8, 9}},
        {"aligned quad {16..19}", {16, 17, 18, 19}},
        {"aligned 16-block {32..47}",
         {32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47}},
    };
    for (const auto& c : cases) {
      const auto full =
          conf::all_pairs_links(Kind::kIndirectCube, n, c.members);
      const auto enhanced = conf::enhanced_cube_realization(n, c.members);
      const auto fl = conf::total_links(full);
      const auto el = conf::total_links(enhanced.links);
      t.row()
          .cell(c.label)
          .cell(fl)
          .cell(el)
          .cell(1.0 - static_cast<double>(el) / static_cast<double>(fl), 3);
    }
    bench::show(t);
  }

  {
    // Dynamic recovery: the full runtime loop (MTTF/MTTR fault process,
    // teardown, repack / wait / retry-backoff) under live traffic.
    util::Table t(
        "availability under a live fault process (omega N=32, arrival 2.0, "
        "holding 2.0, MTTR 1.0, duration 400, seed 11)",
        {"fault rate", "interrupted", "recovered", "dropped", "drop rate",
         "mean recovery latency", "degraded fraction"});
    for (double fault_rate : {0.05, 0.2, 0.5, 1.0}) {
      conf::DirectConferenceNetwork net(Kind::kOmega, 5,
                                        conf::DilationProfile::full(5));
      sim::TeletrafficConfig c;
      c.traffic.arrival_rate = 2.0;
      c.traffic.mean_holding = 2.0;
      c.traffic.min_size = 2;
      c.traffic.max_size = 6;
      c.duration = 400.0;
      c.warmup = 50.0;
      c.seed = 11;
      c.fault_rate = fault_rate;
      c.repair_rate = 1.0;
      const sim::TeletrafficResult r = sim::run_teletraffic(net, c);
      t.row()
          .cell(fault_rate, 2)
          .cell(r.recovery.sessions_interrupted)
          .cell(r.recovery.recovered())
          .cell(r.recovery.dropped)
          .cell(r.dropped_session_rate, 4)
          .cell(r.recovery_latency.mean, 4)
          .cell(r.degraded_fraction, 5);
    }
    bench::show(t);
  }

  std::cout << "Shape: connectivity tracks the analytic (1-p)^(n-1) for "
               "every topology\n(equivalence in action); survival decays "
               "with conference size; the enhanced\nrealization cuts the "
               "fault surface of small conferences by most of the fabric.\n";
}

void BM_ConnectivityScan(benchmark::State& state) {
  const u32 n = static_cast<u32>(state.range(0));
  util::Rng rng(7);
  FaultSet faults(n);
  faults.inject_random(0.01, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(min::connectivity(Kind::kOmega, n, faults));
}
BENCHMARK(BM_ConnectivityScan)->DenseRange(4, 8, 2);

void BM_ConferenceSurvival(benchmark::State& state) {
  const u32 n = static_cast<u32>(state.range(0));
  util::Rng rng(7);
  FaultSet faults(n);
  faults.inject_random(0.01, rng);
  auto members = rng.sample_distinct(u32{1} << n, 8);
  std::sort(members.begin(), members.end());
  for (auto _ : state)
    benchmark::DoNotOptimize(
        min::conference_survives(Kind::kIndirectCube, n, members, faults));
}
BENCHMARK(BM_ConferenceSurvival)->DenseRange(6, 12, 2);

void BM_FailRepairRoundTrip(benchmark::State& state) {
  // Live fault events on a loaded fabric: one fail_link (dirtying only the
  // groups on the link) plus the matching repair_link.
  const u32 n = static_cast<u32>(state.range(0));
  conf::DirectConferenceNetwork net(Kind::kOmega, n,
                                    conf::DilationProfile::full(n));
  conf::SessionManager mgr(net, conf::PlacementPolicy::kBuddy);
  util::Rng rng(7);
  for (int i = 0; i < 64; ++i) {
    const u32 size = 2 + static_cast<u32>(rng.below(6));
    (void)mgr.open(size, rng);
  }
  const u32 N = net.size();
  u32 row = 0;
  for (auto _ : state) {
    row = (row + 1) % N;
    benchmark::DoNotOptimize(net.fail_link(1, row));
    benchmark::DoNotOptimize(net.repair_link(1, row));
  }
  state.counters["active_groups"] =
      static_cast<double>(net.active_count());
}
BENCHMARK(BM_FailRepairRoundTrip)->DenseRange(5, 7, 1);

void BM_TeletrafficRecovery(benchmark::State& state) {
  // End-to-end availability run (fault process + recovery) per iteration.
  for (auto _ : state) {
    conf::DirectConferenceNetwork net(Kind::kOmega, 5,
                                      conf::DilationProfile::full(5));
    sim::TeletrafficConfig c;
    c.traffic.arrival_rate = 2.0;
    c.traffic.mean_holding = 2.0;
    c.traffic.min_size = 2;
    c.traffic.max_size = 6;
    c.duration = 200.0;
    c.warmup = 25.0;
    c.seed = 17;
    c.fault_rate = 0.25;
    c.repair_rate = 1.0;
    const sim::TeletrafficResult r = sim::run_teletraffic(net, c);
    benchmark::DoNotOptimize(r.recovery.recovered());
    state.counters["interrupted"] =
        static_cast<double>(r.recovery.sessions_interrupted);
    state.counters["recovered"] = static_cast<double>(r.recovery.recovered());
  }
}
BENCHMARK(BM_TeletrafficRecovery);

}  // namespace
}  // namespace confnet

CONFNET_BENCH_MAIN(confnet::emit_tables)
