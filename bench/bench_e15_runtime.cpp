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
// one admission decision: each open, each open_batch element and each
// close — a burst-8 open_batch counts 8, not 1. A serial WaitQueueManager
// oracle (phase A, untimed) precomputes the command script including close
// targets, pinning the twin-equivalence contract.
//
// Reading timings: the committed baselines were measured on a 4-vCPU
// x86-64 host (nproc = 4) with unpinned threads, where one row can move by
// tens of percent between processes. The counters are what is gated;
// timings are warn-only (see tools/perf_smoke.py). Pinned, repeatable
// end-to-end figures for the runtime are in e2ebench/README.md.
#include <algorithm>
#include <cstdint>
#include <deque>
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

/// One scripted step for a shard: an open, a close of a known session, or
/// a batched open burst.
struct ScriptEntry {
  rt::CommandKind kind;
  u32 size = 0;
  u32 session = 0;
  std::vector<u32> batch_sizes;
};

struct ShardScript {
  std::vector<ScriptEntry> entries;
  u64 expect_accepted = 0;  // whole-script served opens (oracle)
  u64 expect_rejected = 0;  // whole-script blocked opens (oracle)
};

/// Phase A (untimed): run the churn workload through a serial
/// WaitQueueManager with the shard's exact seed, recording every command
/// (including the session ids the closes will name — the runtime assigns
/// identical ids because its per-shard control plane is deterministic).
/// Fill to blocking with small conferences, churn oldest-out/new-in for
/// kChurnPerShard cycles (batched in groups of `burst` when burst > 1),
/// then close everything so the fabric ends empty and the script can be
/// replayed on a fresh runtime.
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

  auto scripted_open = [&](u32 size) {
    out.entries.push_back({rt::CommandKind::kOpen, size, 0, {}});
    const auto r = oracle.request(size, rng);
    if (r.outcome == RequestOutcome::kServed) {
      ++out.expect_accepted;
      live.push_back(*r.session);
      return true;
    }
    ++out.expect_rejected;
    return false;
  };
  auto scripted_close = [&] {
    out.entries.push_back({rt::CommandKind::kClose, 0, live.front(), {}});
    (void)oracle.close(live.front(), rng);
    live.pop_front();
  };

  // Fill to the first blocked admission.
  while (scripted_open(2 + static_cast<u32>(script.below(kMaxConf - 1)))) {
  }
  // Steady-state churn.
  for (u32 i = 0; i < kChurnPerShard / burst; ++i) {
    const u32 closes = std::min<u32>(burst, static_cast<u32>(live.size()));
    for (u32 b = 0; b < closes; ++b) scripted_close();
    if (burst == 1) {
      scripted_open(2 + static_cast<u32>(script.below(kMaxConf - 1)));
    } else {
      ScriptEntry e{rt::CommandKind::kOpenBatch, 0, 0, {}};
      for (u32 b = 0; b < burst; ++b)
        e.batch_sizes.push_back(2 +
                                static_cast<u32>(script.below(kMaxConf - 1)));
      const auto results = oracle.request_batch(e.batch_sizes, rng);
      for (const auto& r : results) {
        if (r.outcome == RequestOutcome::kServed) {
          ++out.expect_accepted;
          live.push_back(*r.session);
        } else {
          ++out.expect_rejected;
        }
      }
      out.entries.push_back(std::move(e));
    }
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
  u64 decisions = 0;  // opens (batch elements counted singly) + closes
  u64 accepted = 0;
  u64 rejected = 0;
  u64 max_queue_depth = 0;
};

/// Phase B: replay the scripts through a started Runtime. One producer
/// round-robins across shards (each shard's command order is preserved by
/// its FIFO queue), then drains. The caller owns runtime lifecycle so the
/// timed region is submission + processing only.
ReplayOutcome replay(rt::Runtime& r, u32 burst) {
  const auto& sc = scripts(burst);
  std::size_t max_len = 0;
  for (const auto& s : sc) max_len = std::max(max_len, s.entries.size());
  for (std::size_t i = 0; i < max_len; ++i) {
    for (u32 s = 0; s < kShards; ++s) {
      if (i >= sc[s].entries.size()) continue;
      const ScriptEntry& e = sc[s].entries[i];
      rt::Command c;
      c.kind = e.kind;
      c.size = e.size;
      c.session = e.session;
      c.batch_sizes = e.batch_sizes;
      (void)r.submit_to_blocking(s, std::move(c));
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
            << " is the scaling curve\n(target >= 3x at 4 workers on >= 4 "
               "hardware threads; this host reports "
            << std::thread::hardware_concurrency()
            << ").\nCounters are worker-count invariant and gated; timings "
               "are warn-only\nin perf-smoke.\n\n";

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

}  // namespace
}  // namespace confnet

CONFNET_BENCH_MAIN(confnet::emit_tables)
