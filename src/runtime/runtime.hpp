// Front object of the concurrent admission runtime.
//
// A Runtime owns S shards (each a complete fabric + admission + recovery
// control plane, see shard.hpp) and W worker threads; shard i is owned by
// worker i % W, so every shard has exactly one owner thread for its whole
// life and varying W changes only how shards are packed onto threads —
// never per-shard outcomes. Producers address a shard by index (the
// global-port mapping lives in cluster::PortMap) through four calls:
// submit_to_blocking (completion via the command's `done` callback),
// call_pooled (a recycled PooledResult handle), and stage_call +
// submit_stage (a staged burst with one wake per worker per flush).
//
// Thread-safety contract: submit/call/snapshot/drain are thread-safe after
// start(); the lifecycle methods (start/stop) and post-stop shard peeks
// are externally synchronized — they must
// be called by one controlling thread, with stop() strictly after start().
//
// Shutdown ordering (stop): (1) close every command queue — new submits are
// answered inline with kRejectedStopped, nothing is silently dropped;
// (2) set each worker's stop flag and wake it; (3) each worker drains what
// its queues already accepted, runs pending recovery retries to a terminal
// state (flush_retries), publishes final stats, and exits; (4) join.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "min/types.hpp"
#include "runtime/command.hpp"
#include "runtime/result_pool.hpp"
#include "runtime/shard.hpp"
#include "runtime/shard_obs.hpp"
#include "util/thread_annotations.hpp"

namespace confnet::runtime {

/// Whole-runtime construction knobs.
struct RuntimeConfig {
  u32 shards = 4;       // independent fabrics (fixed for a workload)
  u32 workers = 1;      // owner threads; shard i belongs to worker i % W
  ShardConfig shard{};  // applied to every shard (seed offset by index)
};

/// Producer-side staging buffer: collect a burst of commands, then hand
/// the whole burst to Runtime::submit_stage — every owning worker is woken
/// once per flush instead of once per command. Thread-compatible: one
/// producer owns a stage; the backing vectors recycle their capacity
/// across flushes, so steady-state staging allocates nothing.
class CommandStage {
 public:
  CONFNET_HOT void add(u32 shard, Command&& cmd) {
    // static_check: allow(hot-alloc) the staged vector grows to the burst
    // width once, then recycles its capacity across flushes
    staged_.emplace_back(shard, std::move(cmd));
  }

  [[nodiscard]] std::size_t size() const noexcept { return staged_.size(); }
  [[nodiscard]] bool empty() const noexcept { return staged_.empty(); }

 private:
  friend class Runtime;
  std::vector<std::pair<u32, Command>> staged_;  // runtime-owner: caller
  std::vector<std::uint8_t> wake_;               // runtime-owner: caller
};

class Runtime {
 public:
  explicit Runtime(const RuntimeConfig& config);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- lifecycle: externally synchronized (one controller thread) ---------

  /// Spawn the worker threads. Must be called exactly once before any
  /// submit; commands submitted before start() would sit unprocessed.
  void start();

  /// Close queues, drain accepted commands, flush recovery retries, join
  /// the workers. Idempotent. After stop(), submits are rejected inline
  /// with kRejectedStopped (never lost: the completion still runs).
  void stop();

  /// Block until every command accepted so far has been applied and its
  /// stats published. Thread-safe; the runtime keeps running.
  void drain();

  // --- submission: any thread, after start() ------------------------------

  /// Enqueue on `shard`, blocking while its queue is full; the result
  /// arrives through `cmd.done`. kStopped: the runtime refused the command
  /// and `done` already ran inline with kRejectedStopped.
  SubmitStatus submit_to_blocking(u32 shard, Command&& cmd);

  /// Pooled call: hangs a recycled ResultPool slot on the command and
  /// submits (blocking on a full queue). The returned handle always
  /// completes — with kRejectedStopped when the runtime refused the
  /// command. The hand-off itself allocates nothing; in steady-state
  /// open/close churn a refused open and a close allocate nothing and a
  /// served open at most one block (the fabric group's member list; its
  /// link rows are derived, not stored; tests/alloc_budget_test.cpp pins
  /// this).
  [[nodiscard]] PooledResult call_pooled(u32 shard, Command&& cmd);

  /// Stage an allocation-free call: hangs a recycled slot on the command
  /// and parks it in `stage` instead of submitting. Nothing runs until
  /// submit_stage flushes the burst — take() before the flush would block
  /// forever.
  [[nodiscard]] PooledResult stage_call(CommandStage& stage, u32 shard,
                                        Command&& cmd);

  /// Flush a staged burst: every command is submitted to its shard (a full
  /// queue wakes that worker, then blocks for space), and each worker that
  /// received work is woken exactly once at the end — one notify per burst
  /// instead of one per push. Per-shard submission order is the stage's
  /// add order. Returns kAccepted when every command was enqueued,
  /// kStopped when any was answered inline with kRejectedStopped (the rest
  /// still went through). The stage is left empty, capacity retained.
  SubmitStatus submit_stage(CommandStage& stage);

  // --- observability: any thread ------------------------------------------

  /// Per-shard published stats (each internally consistent at a burst
  /// boundary) plus their merge. The runtime writes nothing to the global
  /// obs::Registry; each shard's conference control plane folds its own
  /// counts there once, when the shard is destroyed.
  [[nodiscard]] RuntimeSnapshot snapshot() const;

  /// Commands accepted across all shards (the drain watermark).
  [[nodiscard]] u64 submitted() const;

  /// Completion slots ever created by the result pool — the high-water
  /// mark of concurrent call_pooled/stage_call commands in flight. A flat
  /// value across steady-state churn is the no-allocation evidence.
  [[nodiscard]] std::size_t pooled_slots() const { return pool_.slots(); }

  // --- post-stop: externally synchronized ---------------------------------

  /// Direct shard peek for tests. Producer-side methods are always safe;
  /// owner-side state only after stop().
  [[nodiscard]] Shard& shard(u32 index) { return *shards_[index]; }
  [[nodiscard]] const Shard& shard(u32 index) const {
    return *shards_[index];
  }

  [[nodiscard]] bool started() const noexcept { return started_; }
  [[nodiscard]] bool stopped() const noexcept { return stopped_; }

 private:
  /// Parking state for one worker thread. `signal` is level-triggered: a
  /// producer's wake between "saw empty queues" and "parked" leaves it set,
  /// so the worker re-scans instead of sleeping through it.
  ///
  /// Lock-lean wake protocol: a producer stores `signal = 1` and issues
  /// notify_one only when it then reads `parked == true`, so a busy or
  /// spinning worker costs it one atomic store and no syscall. The worker
  /// publishes `parked = true` before re-reading `signal`, then sleeps in
  /// `signal.wait(0)`. Both store-then-load pairs are seq_cst, so at least
  /// one side sees the other's store and a wakeup is never lost (see
  /// docs/THREADING.md).
  struct Worker {
    std::atomic<std::uint32_t> signal{0};  // runtime-owner: atomic
    std::atomic<bool> parked{false};       // runtime-owner: atomic
    std::atomic<bool> stop{false};         // runtime-owner: atomic
    std::vector<u32> shard_ids;  // runtime-owner: immutable
    std::thread thread;          // runtime-owner: caller
  };

  void worker_loop(u32 w);
  void wake(u32 worker);

  /// The one enqueue path behind every producer call: range-check the
  /// shard, enqueue (blocking while the queue is full) and wake the owner.
  /// With `defer_wake` the accept-wake is left to the caller (a staged
  /// flush wakes each worker once at the end); a full queue still wakes
  /// the owner before blocking, since its deferred wake has not happened.
  SubmitStatus enqueue(u32 shard, Command&& cmd, bool defer_wake);

  /// Hang a recycled pool slot on `cmd` (its one completion channel).
  [[nodiscard]] ResultSlot* attach_slot(Command& cmd);
  [[nodiscard]] u32 worker_of(u32 shard) const noexcept {
    return shard % workers_n_;
  }

  const u32 workers_n_;  // runtime-owner: immutable
  std::vector<std::unique_ptr<Shard>> shards_;    // runtime-owner: immutable
  std::vector<std::unique_ptr<Worker>> workers_;  // runtime-owner: immutable
  ResultPool pool_;       // runtime-owner: queue
  bool started_ = false;  // runtime-owner: caller
  bool stopped_ = false;  // runtime-owner: caller
};

}  // namespace confnet::runtime
