// E16: multi-fabric cluster admission throughput.
//
// Two questions the single-fabric experiments cannot answer:
//  (1) What does cross-shard setup cost? Intra-shard admission is one
//      command round-trip on one shard; a spanning conference is a
//      single-round optimistic claim (trunk tree up front, one staged
//      concurrent leg burst). BM_ClusterIntraChurn vs BM_ClusterSpanChurn
//      at matched churn volume is that ratio, per worker count.
//  (2) How do trunk capacity and lane multiplexing shape cross-shard
//      blocking? The teletraffic table sweeps lanes-per-pair crossed with
//      conferences-per-lane and separates shard-local blocking from
//      trunk-claim blocking (the paper's blocking analysis, lifted to the
//      trunked cluster): at equal lanes, conferences_per_lane >= 2 must
//      show strictly lower trunk blocking.
//
// Determinism contract: cluster outcomes depend only on the seed and the
// per-shard command sequences, never on the worker count — the admission
// counters must be byte-identical across every workers:N row and across
// runs (gated hard by tools/compare_bench.py; timings are warn-only).
//
// Reading timings: the committed baselines were measured on a 4-vCPU
// x86-64 host (nproc = 4) with unpinned threads, where one row can move by
// tens of percent between processes; timings are warn-only. Pinned,
// repeatable end-to-end cluster figures are in e2ebench/README.md.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "sim/cluster_traffic.hpp"
#include "util/rng.hpp"

namespace confnet {
namespace {

using min::u32;
using min::u64;
namespace cl = cluster;

constexpr u32 kShards = 4;
constexpr u32 kStagesPerShard = 6;  // 4 x 64 = 256 ports
constexpr u32 kChurnOps = 2000;
constexpr u64 kSeed = 42;

cl::ClusterConfig cluster_config(u32 workers, u32 trunk_lanes = 4,
                                 u32 conferences_per_lane = 1) {
  cl::ClusterConfig cfg;
  cfg.shards = kShards;
  cfg.workers = workers;
  cfg.stages = kStagesPerShard;
  cfg.dilation = 4;  // port-limited admission (the churn regime, as in E15)
  cfg.trunk_lanes = trunk_lanes;
  cfg.conferences_per_lane = conferences_per_lane;
  cfg.seed = kSeed;
  return cfg;
}

struct ChurnOutcome {
  u64 ops = 0;
  u64 admitted = 0;
  u64 blocked_local = 0;
  u64 blocked_trunk = 0;
  u64 lane_acquires = 0;
  u32 trunk_peak = 0;
};

/// Steady-churn workload on a started cluster: keep ~`target` conferences
/// live, oldest-out/new-in. `span_every` > 0 makes every k-th open a
/// spanning conference over 2-3 shards (0 = intra only). Deterministic:
/// one seed fixes every outcome regardless of worker count.
ChurnOutcome run_churn(cl::Cluster& c, u32 span_every) {
  util::Rng rng(kSeed);
  std::deque<u64> live;
  ChurnOutcome out;
  const u32 target = 48;
  for (u32 op = 0; op < kChurnOps; ++op) {
    ++out.ops;
    if (live.size() >= target) {
      (void)c.close(live.front());
      live.pop_front();
      continue;
    }
    std::vector<cl::LegSpec> legs;
    if (span_every > 0 && op % span_every == 0) {
      const u32 touch = 2 + static_cast<u32>(rng.below(2));  // 2..3 shards
      const u32 first = static_cast<u32>(rng.below(kShards));
      for (u32 t = 0; t < touch; ++t)
        legs.push_back({(first + t) % kShards,
                        1 + static_cast<u32>(rng.below(2))});
      std::sort(legs.begin(), legs.end(),
                [](const cl::LegSpec& a, const cl::LegSpec& b) {
                  return a.shard < b.shard;
                });
    } else {
      legs.push_back({static_cast<u32>(rng.below(kShards)),
                      2 + static_cast<u32>(rng.below(3))});
    }
    const cl::OpenReport r = c.open(legs);
    switch (r.result) {
      case cl::Admit::kAccepted:
        ++out.admitted;
        live.push_back(r.id);
        break;
      case cl::Admit::kBlockedLocal:
        ++out.blocked_local;
        break;
      case cl::Admit::kBlockedTrunk:
        ++out.blocked_trunk;
        break;
    }
  }
  while (!live.empty()) {
    (void)c.close(live.front());
    live.pop_front();
  }
  c.drain();
  out.lane_acquires = c.trunks().lane_acquires();
  out.trunk_peak = c.trunks().peak_pair_used();
  return out;
}

void emit_tables() {
  bench::print_header(
      "E16", "trunked multi-fabric cluster admission",
      "What does cross-shard (single-round optimistic) setup cost relative "
      "to intra-shard admission, and how do trunk capacity and lane "
      "multiplexing shape blocking?");

  const std::vector<unsigned> workers = bench::parse_workers({1, 2});

  // --- Table 1: deterministic churn counters, intra vs spanning ----------
  util::Table t1(
      "steady churn over 4 shards (4 x N=64), ~48 live conferences, 2000 "
      "ops; counters must be identical across worker counts (gated)",
      {"workload", "workers", "admitted", "blocked local", "blocked trunk",
       "lane acquires", "trunk peak"});
  for (const bool spanning : {false, true}) {
    for (unsigned w : workers) {
      cl::Cluster c(cluster_config(static_cast<u32>(w)));
      c.start();
      const ChurnOutcome out = run_churn(c, spanning ? 4 : 0);
      c.cross_check();  // delivery stays oracle-equivalent post-churn
      c.stop();
      t1.row()
          .cell(spanning ? "mixed (1-in-4 spans)" : "intra only")
          .cell(w)
          .cell(out.admitted)
          .cell(out.blocked_local)
          .cell(out.blocked_trunk)
          .cell(out.lane_acquires)
          .cell(out.trunk_peak);
    }
  }
  bench::show(t1);

  // --- Table 2: blocking vs trunk capacity and lane multiplexing --------
  util::Table t2(
      "cluster teletraffic at lanes-per-pair 1..8 x conferences-per-lane "
      "1..2 (seed 7, 40% spanning arrivals, duration 200): span blocking "
      "splits into the shard-local and trunk-claim causes; at equal lanes, "
      "cpl=2 must block strictly less on trunks; all columns deterministic "
      "(gated)",
      {"lanes/pair", "conf/lane", "span opens", "span admitted",
       "blocked local", "blocked trunk", "trunk util %", "trunk peak"});
  for (const u32 lanes : {1u, 2u, 4u, 8u}) {
    for (const u32 cpl : {1u, 2u}) {
      cl::Cluster c(cluster_config(1, lanes, cpl));
      sim::ClusterTrafficConfig cfg;
      cfg.traffic.arrival_rate = 6.0;
      cfg.traffic.mean_holding = 2.0;
      cfg.traffic.min_size = 2;
      cfg.traffic.max_size = 6;
      cfg.span_fraction = 0.4;
      cfg.max_span_shards = 3;
      cfg.duration = 200.0;
      cfg.warmup = 40.0;
      cfg.seed = 7;
      const sim::ClusterTrafficResult r = sim::run_cluster_traffic(c, cfg);
      c.cross_check();
      c.stop();
      t2.row()
          .cell(lanes)
          .cell(cpl)
          .cell(r.stats.span_opens)
          .cell(r.stats.span_accepted)
          .cell(r.stats.span_blocked_local)
          .cell(r.stats.span_blocked_trunk)
          .cell(static_cast<u64>(r.trunk_utilization * 100.0 + 0.5))
          .cell(r.trunk_peak);
    }
  }
  bench::show(t2);
  std::cout << "Timing section: BM_ClusterIntraChurn vs BM_ClusterSpanChurn\n"
               "— items_per_second gives the cross-shard setup cost;\n"
               "counters are worker-count invariant and gated\n"
               "(this host reports "
            << std::thread::hardware_concurrency()
            << " hardware threads; timings are warn-only in perf-smoke).\n\n";

  // Timing rows are registered here (not statically) so --workers can
  // select them; run_main calls emit_tables before benchmark::Initialize.
  for (unsigned w : workers) {
    for (const bool spanning : {false, true}) {
      const char* base =
          spanning ? "BM_ClusterSpanChurn" : "BM_ClusterIntraChurn";
      const std::string name =
          std::string(base) + "/workers:" + std::to_string(w);
      ::benchmark::RegisterBenchmark(
          name.c_str(),
          [w, spanning](::benchmark::State& state) {
            std::uint64_t ops = 0;
            ChurnOutcome out;
            for (auto _ : state) {
              state.PauseTiming();  // fabric + thread setup is not admission
              cl::Cluster c(cluster_config(static_cast<u32>(w)));
              c.start();
              state.ResumeTiming();
              out = run_churn(c, spanning ? 4 : 0);
              ops += out.ops;
              state.PauseTiming();
              c.stop();
              state.ResumeTiming();
            }
            state.SetItemsProcessed(static_cast<std::int64_t>(ops));
            // Deterministic outcomes, identical across worker counts —
            // gated hard by tools/compare_bench.py.
            state.counters["admitted"] = static_cast<double>(out.admitted);
            state.counters["blocked_local"] =
                static_cast<double>(out.blocked_local);
            state.counters["blocked_trunk"] =
                static_cast<double>(out.blocked_trunk);
            state.counters["lane_acquires"] =
                static_cast<double>(out.lane_acquires);
            state.SetLabel(std::string("workers=") + std::to_string(w) +
                           (spanning ? "/mixed" : "/intra"));
          })
          ->Unit(::benchmark::kMillisecond)
          ->MeasureProcessCPUTime()
          ->UseRealTime();
    }
  }
}

}  // namespace
}  // namespace confnet

CONFNET_BENCH_MAIN(confnet::emit_tables)
