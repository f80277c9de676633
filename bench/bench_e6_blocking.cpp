// E6 (Figure 5): session blocking probability vs offered load.
//
// Dynamic conference traffic (Poisson arrivals, exponential holding)
// through five system configurations at N=64. Blocking is split by cause:
// placement (no free ports / fragmentation) vs capacity (fabric link
// channels exhausted). The capacity component is the dynamic face of the
// conflict-multiplicity results.
#include "bench_common.hpp"
#include "conference/placement.hpp"
#include "conference/subnetwork.hpp"
#include "min/network.hpp"
#include "sim/erlang.hpp"
#include "sim/replication.hpp"
#include "switchmod/fabric_state.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace confnet {
namespace {

using conf::DilationProfile;
using conf::DirectConferenceNetwork;
using conf::EnhancedCubeNetwork;
using conf::PlacementPolicy;
using min::Kind;
using min::u32;

struct Config {
  std::string label;
  sim::DesignFactory factory;
  PlacementPolicy policy;
};

std::vector<Config> configs(u32 n) {
  return {
      {"cube d=1, buddy",
       [n] {
         return std::make_unique<DirectConferenceNetwork>(
             Kind::kIndirectCube, n, DilationProfile::uniform(n, 1));
       },
       PlacementPolicy::kBuddy},
      {"baseline d=1, buddy",
       [n] {
         return std::make_unique<DirectConferenceNetwork>(
             Kind::kBaseline, n, DilationProfile::uniform(n, 1));
       },
       PlacementPolicy::kBuddy},
      {"cube d=1, random",
       [n] {
         return std::make_unique<DirectConferenceNetwork>(
             Kind::kIndirectCube, n, DilationProfile::uniform(n, 1));
       },
       PlacementPolicy::kRandom},
      {"cube full dilation, random",
       [n] {
         return std::make_unique<DirectConferenceNetwork>(
             Kind::kIndirectCube, n, DilationProfile::full(n));
       },
       PlacementPolicy::kRandom},
      {"enhanced cube, buddy",
       [n] { return std::make_unique<EnhancedCubeNetwork>(n); },
       PlacementPolicy::kBuddy},
  };
}

void emit_tables() {
  bench::Report::instance().set_backend(
      std::string(util::simd::active_backend_name()));
  bench::print_header(
      "E6", "Figure 5 (blocking probability vs offered load, N=64)",
      "How often are conference requests refused, and is the refusal due to "
      "port availability or fabric conflicts?");

  const u32 n = 6;
  util::Table t("blocking vs offered load (2 replications each)",
                {"offered Erlangs", "config", "P(block)", "placement-blocked",
                 "capacity-blocked", "carried Erlangs"});
  for (double erlangs : {2.0, 4.0, 8.0, 12.0, 16.0}) {
    for (const Config& cfg : configs(n)) {
      sim::TeletrafficConfig c;
      c.traffic.arrival_rate = erlangs / 2.0;
      c.traffic.mean_holding = 2.0;
      c.traffic.min_size = 2;
      c.traffic.max_size = 8;
      c.policy = cfg.policy;
      c.duration = 600.0;
      c.warmup = 100.0;
      c.seed = 1040861;
      const auto agg = sim::run_replications(cfg.factory, c, 2);
      t.row()
          .cell(erlangs, 3)
          .cell(cfg.label)
          .cell(agg.blocking.mean(), 4)
          .cell(agg.total_blocked_placement)
          .cell(agg.total_blocked_capacity)
          .cell(agg.carried.mean(), 4);
    }
  }
  bench::show(t);

  {
    // Analytic cross-check: with a conflict-free fabric and first-fit
    // placement, blocking is the Kaufman-Roberts multi-rate loss value.
    util::Table t2(
        "validation against the Kaufman-Roberts analytic loss model "
        "(first-fit placement, full dilation, fixed 4-port sessions)",
        {"offered Erlangs", "simulated P(block)", "Kaufman-Roberts"});
    for (double erlangs : {2.0, 4.0, 8.0, 12.0}) {
      sim::TeletrafficConfig c;
      c.traffic.arrival_rate = erlangs / 2.0;
      c.traffic.mean_holding = 2.0;
      c.traffic.min_size = 4;
      c.traffic.max_size = 4;
      c.policy = PlacementPolicy::kFirstFit;
      c.duration = 3000.0;
      c.warmup = 300.0;
      c.seed = 7;
      DirectConferenceNetwork net(Kind::kIndirectCube, n,
                                  DilationProfile::full(n));
      const auto r = sim::run_teletraffic(net, c);
      const double analytic =
          sim::kaufman_roberts_blocking(u32{1} << n, {{4, erlangs}})[0];
      t2.row()
          .cell(erlangs, 3)
          .cell(r.blocking_probability, 4)
          .cell(analytic, 4);
    }
    bench::show(t2);
  }

  std::cout
      << "Shape: capacity blocking is zero for cube@buddy, full dilation and "
         "the enhanced\ncube at every load (conflict-freedom), nonzero for "
         "baseline@buddy and cube@random\n(R2's split); at high load "
         "placement blocking dominates everywhere — the fabric\nstops being "
         "the bottleneck once conflicts are designed away.\n";
}

void BM_TeletrafficRun(benchmark::State& state) {
  const u32 n = static_cast<u32>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    DirectConferenceNetwork net(Kind::kIndirectCube, n,
                                DilationProfile::uniform(n, 1));
    sim::TeletrafficConfig c;
    c.traffic.arrival_rate = 2.0;
    c.duration = 100.0;
    c.warmup = 10.0;
    c.policy = PlacementPolicy::kBuddy;
    c.seed = seed++;
    const auto r = sim::run_teletraffic(net, c);
    benchmark::DoNotOptimize(r.events);
  }
}
BENCHMARK(BM_TeletrafficRun)->DenseRange(4, 8, 2)->Unit(benchmark::kMillisecond);

// --- Signal-plane propagation twins --------------------------------------
//
// Same deterministically populated fabric, two engines: the bitset-row
// plane (BM_PropagateSimd, whichever backend CONFNET_SIMD / autodetect
// resolved — see the label) against the retained set-based oracle
// (BM_PropagateReference). The fan-op counters are seed-determined and
// must be byte-identical across backends; only the wall time may differ.

std::vector<u32> populate_propagation_state(sw::FabricState& fabric, u32 n) {
  util::Rng rng(20260808);
  conf::PortPlacer placer(n, conf::PlacementPolicy::kRandom);
  const u32 N = u32{1} << n;
  std::vector<u32> ids;
  for (u32 id = 0; id < N / 2; ++id) {
    // Mixed conference sizes up to 64 members: large groups are where the
    // two engines diverge (set merges scale with membership, row ORs with
    // padded words), small ones keep the sweep scaffolding honest.
    const u32 size =
        2 + static_cast<u32>(rng.below(std::min(N / 4, u32{63})));
    auto ports = placer.place(size, rng);
    if (!ports) break;
    sw::GroupRealization g;
    g.id = id;
    g.links = conf::all_pairs_links(Kind::kIndirectCube, n, *ports);
    g.members = std::move(*ports);
    if (!fabric.try_add(std::move(g))) break;
    ids.push_back(id);
  }
  return ids;
}

void report_propagation_counters(benchmark::State& state,
                                 const sw::FabricState& fabric,
                                 const std::vector<u32>& ids) {
  std::uint64_t fan_in = 0;
  std::uint64_t fan_out = 0;
  for (u32 id : ids) {
    const sw::PropagationResult ref = fabric.propagate_reference(id);
    fan_in += ref.fan_in_ops;
    fan_out += ref.fan_out_ops;
  }
  state.SetLabel(util::simd::active_backend_name());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ids.size()));
  state.counters["groups"] = static_cast<double>(ids.size());
  state.counters["fan_in_ops"] = static_cast<double>(fan_in);
  state.counters["fan_out_ops"] = static_cast<double>(fan_out);
}

void BM_PropagateSimd(benchmark::State& state) {
  const u32 n = static_cast<u32>(state.range(0));
  const min::Network net = min::make_network(Kind::kIndirectCube, n);
  sw::FabricState fabric(net, sw::FabricConfig{u32{1} << n, true, true});
  const std::vector<u32> ids = populate_propagation_state(fabric, n);
  for (auto _ : state) {
    fabric.invalidate_signal_caches();
    bool ok = fabric.delivery_ok();
    benchmark::DoNotOptimize(ok);
  }
  report_propagation_counters(state, fabric, ids);
}
BENCHMARK(BM_PropagateSimd)->DenseRange(6, 10, 2);

void BM_PropagateReference(benchmark::State& state) {
  const u32 n = static_cast<u32>(state.range(0));
  const min::Network net = min::make_network(Kind::kIndirectCube, n);
  sw::FabricState fabric(net, sw::FabricConfig{u32{1} << n, true, true});
  const std::vector<u32> ids = populate_propagation_state(fabric, n);
  for (auto _ : state) {
    std::uint64_t violations = 0;
    for (u32 id : ids) {
      const sw::PropagationResult ref = fabric.propagate_reference(id);
      violations += ref.capability_violations;
      benchmark::DoNotOptimize(ref.delivered.data());
    }
    benchmark::DoNotOptimize(violations);
  }
  report_propagation_counters(state, fabric, ids);
}
BENCHMARK(BM_PropagateReference)->DenseRange(6, 10, 2);

// The teletraffic simulation's pattern: one group changes (here: replaced by a
// copy of its own realization, which dirties its cached verdict), then the
// periodic delivery check runs over the whole fabric. Each iteration
// re-propagates one group and reads every other group's cached verdict.
void BM_DeliveryCheckChurn(benchmark::State& state) {
  const u32 n = static_cast<u32>(state.range(0));
  const min::Network net = min::make_network(Kind::kIndirectCube, n);
  sw::FabricState fabric(net, sw::FabricConfig{u32{1} << n, true, true});
  const std::vector<u32> ids = populate_propagation_state(fabric, n);
  std::size_t next = 0;
  for (auto _ : state) {
    const u32 id = ids[next];
    next = next + 1 == ids.size() ? 0 : next + 1;
    fabric.replace(id, fabric.group(id));
    bool ok = fabric.delivery_ok();
    benchmark::DoNotOptimize(ok);
  }
  state.SetLabel(util::simd::active_backend_name());
  state.counters["groups"] = static_cast<double>(ids.size());
}
BENCHMARK(BM_DeliveryCheckChurn)->DenseRange(6, 10, 2);

}  // namespace
}  // namespace confnet

CONFNET_BENCH_MAIN(confnet::emit_tables)
