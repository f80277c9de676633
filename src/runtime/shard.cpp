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
// stays responsive.
constexpr std::size_t kMaxBurst = 64;
}  // namespace

Shard::Shard(u32 index, const ShardConfig& config)
    : index_(index),
      config_(config),
      network_(config.kind, config.stages,
               conf::DilationProfile::uniform(config.stages, config.dilation)),
      wait_(network_, config.policy, config.wait_capacity, config.wait_bypass,
            config.backend),
      recovery_(wait_, config.recovery),
      rng_(config.seed + index),
      trace_(config.trace_capacity),
      queue_(config.queue_depth) {
  burst_.reserve(kMaxBurst);
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
    const std::size_t depth = queue_.size();
    burst_.clear();
    const std::size_t n = queue_.pop_batch(burst_, kMaxBurst);
    if (n == 0) break;
    stats_.max_queue_depth = std::max<u64>(stats_.max_queue_depth, depth);
    ++stats_.bursts;
    stats_.max_burst = std::max<u64>(stats_.max_burst, n);
    for (std::size_t i = 0; i < n; ++i) apply(burst_[i]);
    applied += n;
    publish();
  }
  return applied;
}

void Shard::serve_open(OpenOutcome& out,
                       const conf::WaitQueueManager::RequestResult& r) {
  out.outcome = r.outcome;
  out.session = r.session;
  out.ticket = r.ticket;
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
}

void Shard::absorb_served(
    CommandResult& result,
    std::vector<conf::WaitQueueManager::ServedTicket> served) {
  if (served.empty()) return;
  recovery_.absorb(served, static_cast<double>(now_));
  result.served.insert(result.served.end(), served.begin(), served.end());
}

void Shard::schedule_retries(
    std::vector<conf::RecoveryCoordinator::PendingRetry> retries) {
  for (auto& p : retries) {
    const double due = static_cast<double>(now_) +
                       config_.recovery.backoff_delay(p.attempt);
    retries_.push_back(DueRetry{due, p});
  }
}

void Shard::run_retries(double horizon) {
  // Logical time only advances with commands, so due retries are run right
  // after the command that made them due, FIFO on schedule order. A retry
  // that goes around again is appended and visited later in the same pass
  // (and run there when its new due time is within the horizon).
  const double now = static_cast<double>(now_);
  std::size_t i = 0;
  while (i < retries_.size()) {
    if (retries_[i].due > horizon) {
      ++i;
      continue;
    }
    const DueRetry due = retries_[i];
    retries_.erase(retries_.begin() + static_cast<std::ptrdiff_t>(i));
    const auto outcome = recovery_.retry(due.pending, now, rng_);
    if (outcome.again) schedule_retries({*outcome.again});
  }
}

void Shard::flush_retries() {
  // Shutdown: no horizon, so every pending retry runs to a terminal state.
  // The retry budget bounds the loop.
  run_retries(std::numeric_limits<double>::infinity());
  publish();
}

void Shard::apply(Command& cmd) {
  CommandResult result;
  result.kind = cmd.kind;
  result.status = CommandStatus::kDone;
  result.shard = index_;
  result.applied_at = now_;

  switch (cmd.kind) {
    case CommandKind::kOpen: {
      serve_open(result.open, wait_.request(cmd.size, rng_));
      break;
    }
    case CommandKind::kOpenBatch: {
      const auto results = wait_.request_batch(cmd.batch_sizes, rng_);
      result.batch.resize(results.size());
      for (std::size_t i = 0; i < results.size(); ++i)
        serve_open(result.batch[i], results[i]);
      break;
    }
    case CommandKind::kClose: {
      if (wait_.sessions().contains(cmd.session)) {
        result.ok = true;
        ++stats_.closes;
        absorb_served(result, wait_.close(cmd.session, rng_));
      } else {
        // The session may be an interrupted one still on the recovery
        // path; a close then cancels the pending recovery.
        recovery_.on_origin_departed(cmd.session, static_cast<double>(now_));
      }
      break;
    }
    case CommandKind::kReplace: {
      // Close-then-open composite. `ok` reports whether the close half
      // found a live session; the open half always runs so churn keeps
      // flowing even when a fault tore the old session down first.
      if (wait_.sessions().contains(cmd.session)) {
        result.ok = true;
        absorb_served(result, wait_.close(cmd.session, rng_));
      } else {
        recovery_.on_origin_departed(cmd.session, static_cast<double>(now_));
      }
      ++stats_.replaces;
      serve_open(result.open, wait_.request(cmd.size, rng_));
      break;
    }
    case CommandKind::kFailLink: {
      const bool was_faulty = network_.link_faulty(cmd.level, cmd.row);
      auto impact = recovery_.fail_link(cmd.level, cmd.row,
                                        static_cast<double>(now_), rng_);
      result.ok = !was_faulty;
      result.torn_sessions = std::move(impact.torn_down);
      result.relocated.reserve(impact.recovered.size());
      for (const auto& r : impact.recovered)
        result.relocated.emplace_back(r.origin, r.session);
      schedule_retries(std::move(impact.retries));
      // Teardown may have freed room for regular waiters too.
      absorb_served(result, wait_.drain(rng_));
      break;
    }
    case CommandKind::kRepairLink: {
      const bool was_faulty = network_.link_faulty(cmd.level, cmd.row);
      auto impact = recovery_.repair_link(cmd.level, cmd.row,
                                          static_cast<double>(now_), rng_);
      result.ok = was_faulty;
      result.relocated.reserve(impact.recovered.size());
      for (const auto& r : impact.recovered)
        result.relocated.emplace_back(r.origin, r.session);
      result.served = std::move(impact.served);
      break;
    }
  }

  ++now_;
  stats_.completed = now_;
  run_retries(static_cast<double>(now_));
  stats_.active_sessions = wait_.sessions().active_sessions();
  if (trace_.enabled()) {
    trace_.record(command_name(cmd.kind), now_,
                  static_cast<double>(stats_.active_sessions));
  }
  // Mirror into the process-wide tracer (no-op unless --trace armed it;
  // Tracer::record is thread-safe, so concurrent shards may interleave).
  obs::trace_emit("runtime", command_name(cmd.kind),
                  static_cast<double>(stats_.active_sessions));
  if (cmd.slot != nullptr)
    cmd.slot->fulfill(std::move(result));
  else if (cmd.done)
    cmd.done(std::move(result));
}

void Shard::publish() {
  stats_.recovery = recovery_.stats();
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
