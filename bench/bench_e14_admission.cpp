// E14: admission fast path throughput (PR 5 artifact).
//
// Twin benchmarks drive the identical high-churn admission workload through
// the hierarchical-bitmap fast path (conf::FastPortPlacer) and the original
// scan/sorted-vector oracle (conf::PortPlacer) selected via make_placer.
// Outcomes are byte-identical by contract (pinned by
// tests/placement_fastpath_test.cpp); only the clock differs, so the
// items_per_second ratio between the Arg(0)/Arg(1) rows of each pair IS the
// speedup. Deterministic workload counters (admitted/blocked/events) are
// exported as user counters so tools/compare_bench.py can gate on them: any
// drift means the admission outcome changed, not just the timing.
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "conference/placement.hpp"
#include "sim/teletraffic.hpp"
#include "util/rng.hpp"

namespace confnet {
namespace {

using conf::DilationProfile;
using conf::DirectConferenceNetwork;
using conf::PlacementPolicy;
using conf::PlacerBackend;
using min::Kind;
using min::u32;

constexpr u32 kStages = 10;  // N = 1024 ports: the headline high-churn size
constexpr u32 kChurnOps = 4096;
constexpr u32 kMaxConf = 4;  // small conferences -> near-full occupancy

const char* policy_name(PlacementPolicy p) {
  switch (p) {
    case PlacementPolicy::kFirstFit: return "first-fit";
    case PlacementPolicy::kRandom: return "random";
    case PlacementPolicy::kBuddy: return "buddy";
  }
  return "?";
}

struct ChurnOutcome {
  std::uint64_t admitted = 0;
  std::uint64_t blocked = 0;
  std::uint64_t ops = 0;        // place/release steps driven
  u32 free_after = 0;           // free ports once steady churn ends
};

/// One deterministic high-churn admission workload: fill the fabric to its
/// placement limit with small conferences (near-full occupancy is the
/// regime where signalling churn concentrates), then run kChurnOps
/// oldest-out/new-in cycles. Identical seeds on both backends; the
/// draw-sequence contract makes the outcome stream (and therefore every
/// counter) backend-independent.
ChurnOutcome run_churn(PlacementPolicy policy, PlacerBackend backend) {
  auto placer = conf::make_placer(kStages, policy, backend);
  util::Rng rng(12345);         // placement draws (random policy only)
  util::Rng script(777);        // workload script: conference sizes
  std::deque<std::vector<u32>> live;
  ChurnOutcome out;
  // Fill phase: admit until the first blocked request.
  while (true) {
    const u32 size = 2 + static_cast<u32>(script.below(kMaxConf - 1));
    auto ports = placer->place(size, rng);
    if (!ports) break;
    live.push_back(std::move(*ports));
  }
  // Steady-state churn: close the oldest session, admit a fresh one.
  for (u32 i = 0; i < kChurnOps; ++i) {
    placer->release(live.front());
    live.pop_front();
    const u32 size = 2 + static_cast<u32>(script.below(kMaxConf - 1));
    if (auto ports = placer->place(size, rng)) {
      live.push_back(std::move(*ports));
      ++out.admitted;
    } else {
      ++out.blocked;
    }
    out.ops += 2;  // one release + one admission attempt
  }
  out.free_after = placer->free_ports();
  for (const auto& ports : live) placer->release(ports);
  return out;
}

void emit_tables() {
  bench::print_header(
      "E14", "admission fast path (hierarchical bitmap port index)",
      "Does the bitmap port index admit sessions faster than the "
      "scan/sorted-vector placer while producing identical outcomes?");

  util::Table t("steady-state admission churn, N=1024 "
                "(fill to blocking with small conferences, then 4096 oldest-out/new-in cycles; "
                "twin rows must match exactly)",
                {"policy", "backend", "admitted", "blocked", "free after"});
  for (PlacementPolicy policy :
       {PlacementPolicy::kFirstFit, PlacementPolicy::kRandom,
        PlacementPolicy::kBuddy}) {
    for (PlacerBackend backend : {PlacerBackend::kFast,
                                  PlacerBackend::kReference}) {
      const ChurnOutcome out = run_churn(policy, backend);
      t.row()
          .cell(policy_name(policy))
          .cell(backend == PlacerBackend::kFast ? "bitmap fast path"
                                                : "reference oracle")
          .cell(out.admitted)
          .cell(out.blocked)
          .cell(out.free_after);
    }
  }
  bench::show(t);
  std::cout << "Timing section: for each BM_AdmissionChurn policy pair, the\n"
               "items_per_second ratio of Arg(0)=fast over Arg(1)=reference\n"
               "is the admission speedup (target >= 5x at N=1024).\n\n";
}

/// Placer-level admission churn twin. Arg0: policy index. Arg1: backend
/// (0 = bitmap fast path, 1 = reference oracle). items_per_second counts
/// admission operations (release + attempted place).
void BM_AdmissionChurn(benchmark::State& state) {
  const auto policy = static_cast<PlacementPolicy>(state.range(0));
  const auto backend = state.range(1) == 0 ? PlacerBackend::kFast
                                           : PlacerBackend::kReference;
  std::uint64_t total_ops = 0;
  ChurnOutcome out;
  for (auto _ : state) {
    out = run_churn(policy, backend);
    total_ops += out.ops;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_ops));
  // Deterministic workload outcome (identical every iteration and across
  // backends) — gated hard by tools/compare_bench.py.
  state.counters["admitted"] = static_cast<double>(out.admitted);
  state.counters["blocked"] = static_cast<double>(out.blocked);
  state.SetLabel(std::string(policy_name(policy)) + "/" +
                 (backend == PlacerBackend::kFast ? "fast" : "reference"));
}
BENCHMARK(BM_AdmissionChurn)
    ->Args({static_cast<long>(PlacementPolicy::kFirstFit), 0})
    ->Args({static_cast<long>(PlacementPolicy::kFirstFit), 1})
    ->Args({static_cast<long>(PlacementPolicy::kRandom), 0})
    ->Args({static_cast<long>(PlacementPolicy::kRandom), 1})
    ->Args({static_cast<long>(PlacementPolicy::kBuddy), 0})
    ->Args({static_cast<long>(PlacementPolicy::kBuddy), 1})
    ->Unit(benchmark::kMillisecond);

/// End-to-end DES rows: the full teletraffic admission stack (session
/// manager, fabric bookkeeping, subnetwork setup) over the direct cube at
/// N=1024, with bursty arrivals drained through open_batch on the fast
/// placer. Arg0 is always 0 (it selected the retired reference-placer twin;
/// kept so row names match earlier baselines). Arg1: arrivals per event
/// (1 = classic serial path). items_per_second counts DES events.
void BM_TeletrafficAdmission(benchmark::State& state) {
  sim::TeletrafficConfig c;
  c.traffic.arrival_rate = 40.0;
  c.traffic.mean_holding = 1.0;
  c.traffic.min_size = 2;
  c.traffic.max_size = 32;
  c.policy = PlacementPolicy::kRandom;
  c.duration = 60.0;
  c.warmup = 10.0;
  c.seed = 7;
  c.arrival_burst = static_cast<u32>(state.range(1));

  std::uint64_t events = 0;
  sim::TeletrafficResult r;
  for (auto _ : state) {
    DirectConferenceNetwork net(Kind::kIndirectCube, kStages,
                                DilationProfile::uniform(kStages, 1));
    r = sim::run_teletraffic(net, c);
    events += r.events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["attempts"] = static_cast<double>(r.stats.attempts);
  state.counters["accepted"] = static_cast<double>(r.stats.accepted);
  state.SetLabel("fast/burst=" + std::to_string(c.arrival_burst));
}
BENCHMARK(BM_TeletrafficAdmission)
    ->Args({0, 1})
    ->Args({0, 8})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace confnet

CONFNET_BENCH_MAIN(confnet::emit_tables)
