// E15: concurrent admission runtime throughput (PR 7 artifact).
//
// Multi-threaded twin of bench_e14_admission: the identical scripted
// high-churn admission workload runs through the thread-per-shard Runtime
// at varying worker counts over a FIXED set of 4 shards (4 x N=256 = 1024
// ports, e14's headline scale). Because a shard is always owned by exactly
// one thread, per-shard outcomes are deterministic and worker-count
// independent — the admitted/blocked counters must be byte-identical
// across every row (gated by tools/compare_bench.py), and the
// items_per_second ratio between rows IS the scaling curve. One item is
// one admission decision: each open and each close, so a command is one
// decision. At burst 8 the producer stages eight opens per shard
// (largest first) and flushes them with one submit_stage. A serial
// WaitQueueManager oracle (phase A, untimed) precomputes the command
// script including close targets, pinning the twin-equivalence contract.
//
// Reading timings: the committed baselines were measured on a 4-vCPU
// x86-64 host (nproc = 4) with unpinned threads, where one row can move by
// tens of percent between processes. The counters are what is gated;
// timings are warn-only (see tools/perf_smoke.py). Pinned, repeatable
// end-to-end figures for the runtime are in e2ebench/README.md.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "conference/designs.hpp"
#include "conference/waitqueue.hpp"
#include "runtime/command.hpp"
#include "runtime/runtime.hpp"
#include "util/rng.hpp"

namespace confnet {
namespace {

using conf::DilationProfile;
using conf::DirectConferenceNetwork;
using conf::PlacementPolicy;
using conf::PlacerBackend;
using conf::RequestOutcome;
using conf::WaitQueueManager;
using min::u32;
using min::u64;
namespace rt = runtime;

constexpr u32 kShards = 4;
constexpr u32 kStagesPerShard = 8;  // 4 x 256 ports = 1024, e14's scale
constexpr u32 kChurnPerShard = 1024;
constexpr u32 kMaxConf = 4;  // small conferences -> near-full occupancy
constexpr u64 kSeed = 42;

rt::RuntimeConfig runtime_config(u32 workers) {
  rt::RuntimeConfig cfg;
  cfg.shards = kShards;
  cfg.workers = workers;
  cfg.shard.stages = kStagesPerShard;
  // Dilation 4 makes admission port-limited rather than routing-limited
  // (~85 concurrent small conferences per shard at N=256), the high-churn
  // regime this benchmark is about; at dilation 1 the fabric blocks after
  // a couple of conferences and there is nothing to churn.
  cfg.shard.dilation = 4;
  cfg.shard.policy = PlacementPolicy::kFirstFit;
  cfg.shard.backend = PlacerBackend::kFast;
  cfg.shard.queue_depth = 256;
  cfg.shard.wait_capacity = 0;  // pure loss system: kServed/kRejected only
  cfg.shard.seed = kSeed;
  return cfg;
}

/// One scripted command for a shard: an open, or a close of a known
/// session.
struct ScriptEntry {
  rt::CommandKind kind;
  u32 size = 0;
  u32 session = 0;
};

/// What the producer hands a shard at once: one command, or a staged
/// burst of opens.
using ScriptStep = std::vector<ScriptEntry>;

struct ShardScript {
  std::vector<ScriptStep> steps;
  u64 expect_accepted = 0;  // whole-script served opens (oracle)
  u64 expect_rejected = 0;  // whole-script blocked opens (oracle)
};

/// Phase A (untimed): run the churn workload through a serial
/// WaitQueueManager with the shard's exact seed, recording every command
/// (including the session ids the closes will name — the runtime assigns
/// identical ids because its per-shard control plane is deterministic).
/// Fill to blocking with small conferences, churn oldest-out/new-in for
/// kChurnPerShard cycles (in groups of `burst` when burst > 1: `burst`
/// closes, then one staged burst of `burst` opens, largest first, ties in
/// draw order), then close everything so the fabric ends empty and the
/// script can be replayed on a fresh runtime.
ShardScript build_script(u32 shard_index, u32 burst) {
  const rt::RuntimeConfig cfg = runtime_config(1);
  DirectConferenceNetwork net(
      cfg.shard.kind, cfg.shard.stages,
      DilationProfile::uniform(cfg.shard.stages, cfg.shard.dilation));
  WaitQueueManager oracle(net, cfg.shard.policy, cfg.shard.wait_capacity,
                          cfg.shard.wait_bypass, cfg.shard.backend);
  util::Rng rng(cfg.shard.seed + shard_index);  // the shard's own seed
  util::Rng script(777 + shard_index);          // workload script
  ShardScript out;
  std::deque<u32> live;

  // Scripts one open into `step`; the session id when it is served.
  auto scripted_open = [&](u32 size, ScriptStep& step) -> std::optional<u32> {
    step.push_back({rt::CommandKind::kOpen, size, 0});
    const auto r = oracle.request(size, rng);
    if (r.outcome == RequestOutcome::kServed) {
      ++out.expect_accepted;
      return r.session;
    }
    ++out.expect_rejected;
    return std::nullopt;
  };
  auto draw_size = [&] {
    return 2 + static_cast<u32>(script.below(kMaxConf - 1));
  };
  auto scripted_close = [&] {
    out.steps.push_back({{rt::CommandKind::kClose, 0, live.front()}});
    (void)oracle.close(live.front(), rng);
    live.pop_front();
  };

  // Fill to the first blocked admission.
  while (const auto id = scripted_open(draw_size(), out.steps.emplace_back()))
    live.push_back(*id);
  // Steady-state churn. A burst is staged largest first, and its served
  // sessions join the oldest-out queue in draw order.
  std::vector<u32> sizes(burst);
  std::vector<u32> order(burst);
  std::vector<std::optional<u32>> served(burst);
  for (u32 i = 0; i < kChurnPerShard / burst; ++i) {
    const u32 closes = std::min<u32>(burst, static_cast<u32>(live.size()));
    for (u32 b = 0; b < closes; ++b) scripted_close();
    for (u32& size : sizes) size = draw_size();
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](u32 a, u32 b) { return sizes[a] > sizes[b]; });
    ScriptStep& step = out.steps.emplace_back();
    for (u32 idx : order) served[idx] = scripted_open(sizes[idx], step);
    for (const auto& id : served)
      if (id) live.push_back(*id);
  }
  // Leave the fabric empty for the next replay.
  while (!live.empty()) scripted_close();
  return out;
}

const std::vector<ShardScript>& scripts(u32 burst) {
  static std::vector<ShardScript> serial;
  static std::vector<ShardScript> batched;
  auto& cache = burst == 1 ? serial : batched;
  if (cache.empty())
    for (u32 s = 0; s < kShards; ++s) cache.push_back(build_script(s, burst));
  return cache;
}

struct ReplayOutcome {
  u64 commands = 0;
  u64 decisions = 0;  // opens + closes
  u64 accepted = 0;
  u64 rejected = 0;
  u64 max_queue_depth = 0;
};

/// Phase B: replay the scripts through a started Runtime. One producer
/// round-robins across shards one step at a time (each shard's command
/// order is preserved by its FIFO queue), then drains. A one-command step
/// is a blocking submit, a burst one staged flush. The caller owns runtime
/// lifecycle so the timed region is submission + processing only.
ReplayOutcome replay(rt::Runtime& r, u32 burst) {
  const auto& sc = scripts(burst);
  std::size_t max_len = 0;
  for (const auto& s : sc) max_len = std::max(max_len, s.steps.size());
  rt::CommandStage stage;
  for (std::size_t i = 0; i < max_len; ++i) {
    for (u32 s = 0; s < kShards; ++s) {
      if (i >= sc[s].steps.size()) continue;
      const ScriptStep& step = sc[s].steps[i];
      for (const ScriptEntry& e : step) {
        rt::Command c;
        c.kind = e.kind;
        c.size = e.size;
        c.session = e.session;
        if (step.size() == 1)
          (void)r.submit_to_blocking(s, std::move(c));
        else
          stage.add(s, std::move(c));
      }
      if (!stage.empty()) (void)r.submit_stage(stage);
    }
  }
  r.drain();
  const rt::RuntimeSnapshot snap = r.snapshot();
  ReplayOutcome out;
  out.commands = snap.total.completed;
  out.decisions = snap.total.opens + snap.total.closes;
  out.accepted = snap.total.accepted;
  out.rejected = snap.total.rejected;
  out.max_queue_depth = snap.total.max_queue_depth;
  return out;
}

void emit_tables() {
  bench::print_header(
      "E15", "concurrent admission runtime (thread-per-shard scaling)",
      "Does admission throughput scale with worker threads while per-shard "
      "outcomes stay byte-identical to the serial oracle?");

  const std::vector<unsigned> workers = bench::parse_workers({1, 2, 4});

  util::Table t(
      "scripted churn over 4 shards (4 x N=256), fill to blocking then "
      "1024 oldest-out/new-in cycles per shard; admitted/blocked must be "
      "identical across worker counts and equal the serial oracle",
      {"workers", "burst", "commands", "decisions", "admitted", "blocked",
       "oracle", "max queue depth"});
  for (u32 burst : {1u, 8u}) {
    u64 oracle_accepted = 0;
    u64 oracle_rejected = 0;
    for (const auto& s : scripts(burst)) {
      oracle_accepted += s.expect_accepted;
      oracle_rejected += s.expect_rejected;
    }
    for (unsigned w : workers) {
      rt::Runtime r(runtime_config(w));
      r.start();
      const ReplayOutcome out = replay(r, burst);
      r.stop();
      const bool match = out.accepted == oracle_accepted &&
                         out.rejected == oracle_rejected;
      t.row()
          .cell(w)
          .cell(burst)
          .cell(out.commands)
          .cell(out.decisions)
          .cell(out.accepted)
          .cell(out.rejected)
          .cell(match ? "match" : "MISMATCH")
          .cell(out.max_queue_depth);
    }
  }
  bench::show(t);
  std::cout << "Timing section: BM_RuntimeChurn items_per_second (one item =\n"
               "one admission decision) across workers="
            << (workers.empty() ? 0 : workers.front()) << ".."
            << (workers.empty() ? 0 : workers.back())
            << " is the scaling curve\n(one producer thread feeds every "
               "shard, so it bounds the curve; this host reports "
            << std::thread::hardware_concurrency()
            << " hardware threads).\nCounters are worker-count invariant "
               "and gated; timings are warn-only\nin perf-smoke.\n\n";

  // Timing rows are registered here (not statically) so --workers can
  // select them; run_main calls emit_tables before benchmark::Initialize.
  for (unsigned w : workers) {
    for (u32 burst : {1u, 8u}) {
      const std::string name = "BM_RuntimeChurn/workers:" +
                               std::to_string(w) +
                               "/burst:" + std::to_string(burst);
      ::benchmark::RegisterBenchmark(
          name.c_str(),
          [w, burst](::benchmark::State& state) {
            std::uint64_t decisions = 0;
            ReplayOutcome out;
            for (auto _ : state) {
              state.PauseTiming();  // fabric + thread setup is not admission
              rt::Runtime r(runtime_config(w));
              r.start();
              state.ResumeTiming();
              out = replay(r, burst);
              decisions += out.decisions;
              state.PauseTiming();
              r.stop();
              state.ResumeTiming();
            }
            state.SetItemsProcessed(static_cast<std::int64_t>(decisions));
            // Deterministic outcome, identical across worker counts —
            // gated hard by tools/compare_bench.py.
            state.counters["admitted"] = static_cast<double>(out.accepted);
            state.counters["blocked"] = static_cast<double>(out.rejected);
            state.counters["decisions"] = static_cast<double>(out.decisions);
            state.SetLabel("workers=" + std::to_string(w) +
                           "/burst=" + std::to_string(burst));
          })
          ->Unit(::benchmark::kMillisecond)
          ->MeasureProcessCPUTime()
          ->UseRealTime();
    }
  }
}

void BM_RuntimeConstruction(::benchmark::State& state) {
  // Set-up cost of the serving geometry (4 shards x N=256, dilation 4, two
  // workers): fabrics, queues and pools, without start()'s thread spawn.
  for (auto _ : state) {
    const rt::Runtime r(runtime_config(2));
    ::benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_RuntimeConstruction)->Unit(::benchmark::kMicrosecond);

void BM_RuntimeRoundTrip(::benchmark::State& state) {
  // One empty round trip through an idle runtime: a close of a session no
  // shard ever opened, through call_pooled, round-robin over 4 shards on
  // two workers — the probe behind e2ebench's runtime.rtt_us. It times the
  // hand-off itself (enqueue, wake, dequeue, fulfill, the producer's
  // wait); the command does no admission work. CPU time is the whole
  // process's, so it includes what the workers burn while spinning.
  rt::Runtime r(runtime_config(2));
  r.start();
  u32 shard = 0;
  u64 refused = 0;
  for (auto _ : state) {
    rt::Command cmd;
    cmd.kind = rt::CommandKind::kClose;
    cmd.session = 1u << 30;
    const rt::CommandResult res = r.call_pooled(shard, std::move(cmd)).take();
    refused += res.ok ? 0 : 1;
    shard = (shard + 1) % kShards;
  }
  r.stop();
  ::benchmark::DoNotOptimize(refused);
}
BENCHMARK(BM_RuntimeRoundTrip)
    ->Unit(::benchmark::kMicrosecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
}  // namespace confnet

CONFNET_BENCH_MAIN(confnet::emit_tables)
