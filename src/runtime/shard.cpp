#include "runtime/shard.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "runtime/result_pool.hpp"
#include "util/trace.hpp"

namespace confnet::runtime {

namespace {
// Burst bound for pop_batch: one lock round-trip amortizes over up to this
// many commands; small enough that stats publish (and thus drain progress)
// stays responsive. The burst buffer starts at kInitialBurst and doubles
// only when a burst outgrows it, so it never holds more than kMaxBurst.
constexpr std::size_t kMaxBurst = 64;
constexpr std::size_t kInitialBurst = 16;

/// Hand the waiters served to the caller (recovered victims keep their ids).
void report(CommandResult& result, const conf::ControlPlane::Effects& fx) {
  result.served.insert(result.served.end(), fx.served.begin(),
                       fx.served.end());
}
}  // namespace

Shard::Shard(u32 index, const ShardConfig& config)
    : index_(index),
      network_(config.kind, config.stages,
               conf::DilationProfile::uniform(config.stages, config.dilation)),
      control_(network_, config.recovery, config.policy, config.wait_capacity,
               config.wait_bypass, config.backend),
      rng_(config.seed + index),
      queue_(config.queue_depth) {
  burst_.reserve(kInitialBurst);
  publish();  // expose a consistent (all-zero) snapshot before any command
}

SubmitStatus Shard::submit(Command&& cmd) {
  switch (queue_.try_push(std::move(cmd))) {
    case QueuePush::kOk:
      return SubmitStatus::kAccepted;
    case QueuePush::kFull:
      // Backpressure: the bounce was counted once by the queue and the
      // command never entered pushed() — a retry that lands contributes
      // exactly one accept to the drain watermark.
      return SubmitStatus::kQueueFull;
    case QueuePush::kClosed:
      break;
  }
  // Stopped: answer inline so the command is rejected, not lost. `cmd` was
  // not consumed by the failed push.
  reject_inline(cmd);
  return SubmitStatus::kStopped;
}

SubmitStatus Shard::submit_blocking(Command&& cmd) {
  if (queue_.push_wait(std::move(cmd)) == QueuePush::kOk)
    return SubmitStatus::kAccepted;
  reject_inline(cmd);
  return SubmitStatus::kStopped;
}

void Shard::reject_inline(Command& cmd) {
  rejected_stopped_.fetch_add(1, std::memory_order_relaxed);
  if (cmd.slot == nullptr && !cmd.done) return;
  CommandResult result;
  result.kind = cmd.kind;
  result.status = CommandStatus::kRejectedStopped;
  result.shard = index_;
  if (cmd.slot != nullptr)
    cmd.slot->fulfill(std::move(result));
  else
    cmd.done(std::move(result));
}

std::size_t Shard::process_available() {
  std::size_t applied = 0;
  for (;;) {
    burst_.clear();
    const QueuePop got = queue_.pop_batch(burst_, kMaxBurst);
    if (got.taken == 0) break;
    stats_.max_queue_depth = std::max<u64>(stats_.max_queue_depth, got.depth);
    ++stats_.bursts;
    stats_.max_burst = std::max<u64>(stats_.max_burst, got.taken);
    for (std::size_t i = 0; i < got.taken; ++i) apply(burst_[i]);
    applied += got.taken;
    publish();
    // Everything queued at the pop was taken: return rather than lock again
    // to find the queue empty. The worker re-scans after any applied work.
    if (got.taken == got.depth) break;
  }
  return applied;
}

void Shard::flush_retries() {
  control_.run_due(std::numeric_limits<double>::infinity(), rng_);
  publish();
}

void Shard::apply(Command& cmd) {
  CommandResult result;
  result.kind = cmd.kind;
  result.status = CommandStatus::kDone;
  result.shard = index_;
  result.applied_at = now_;

  conf::WaitQueueManager& wait = control_.wait();
  switch (cmd.kind) {
    case CommandKind::kOpen: {
      const auto r = wait.request(cmd.size, rng_);
      result.open = OpenOutcome{r.outcome, r.session, r.ticket};
      ++stats_.opens;
      switch (r.outcome) {
        case conf::RequestOutcome::kServed:
          ++stats_.accepted;
          break;
        case conf::RequestOutcome::kQueued:
          ++stats_.queued;
          break;
        case conf::RequestOutcome::kRejected:
          ++stats_.rejected;
          break;
      }
      break;
    }
    case CommandKind::kClose: {
      // A close of an interrupted session still on the recovery path
      // cancels its pending recovery; `ok` only for a live session.
      result.ok = wait.sessions().contains(cmd.session);
      if (result.ok) ++stats_.closes;
      report(result, control_.close(cmd.session, rng_));
      break;
    }
    case CommandKind::kFailLink: {
      result.ok = !network_.link_faulty(cmd.level, cmd.row);
      auto fx = control_.fail_link(cmd.level, cmd.row,
                                   static_cast<double>(now_), rng_);
      result.torn_sessions = std::move(fx.torn_down);
      report(result, fx);
      break;
    }
    case CommandKind::kRepairLink: {
      result.ok = network_.link_faulty(cmd.level, cmd.row);
      report(result, control_.repair_link(cmd.level, cmd.row, rng_));
      break;
    }
  }

  ++now_;
  stats_.completed = now_;
  // Logical time only advances with commands, so the retries this command
  // made due run now and report through its result.
  report(result, control_.run_due(static_cast<double>(now_), rng_));
  std::erase_if(result.torn_sessions,
                [&](u32 sid) { return wait.sessions().contains(sid); });
  stats_.active_sessions = wait.sessions().active_sessions();
  // The process-wide tracer (no-op unless --trace armed it; Tracer::record
  // is thread-safe, so concurrent shards may interleave).
  obs::trace_emit("runtime", command_name(cmd.kind),
                  static_cast<double>(stats_.active_sessions));
  if (cmd.slot != nullptr)
    cmd.slot->fulfill(std::move(result));
  else if (cmd.done)
    cmd.done(std::move(result));
}

void Shard::publish() {
  stats_.recovery = control_.stats();
  {
    util::MutexLock lock(pub_mu_);
    published_ = stats_;
  }
  pub_cv_.notify_all();
}

ShardStats Shard::snapshot() const {
  ShardStats copy;
  {
    util::MutexLock lock(pub_mu_);
    copy = published_;
  }
  // Folded in outside the stats identities: producers bump these directly.
  copy.rejected_stopped = rejected_stopped_.load(std::memory_order_relaxed);
  copy.submit_bounced = queue_.bounced();
  return copy;
}

void Shard::wait_published(u64 watermark) const {
  util::MutexLock lock(pub_mu_);
  while (published_.completed < watermark) pub_cv_.wait(pub_mu_);
}

}  // namespace confnet::runtime
