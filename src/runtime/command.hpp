// Command vocabulary of the concurrent admission runtime.
//
// Producers (API front ends, load generators, tests) talk to a shard's
// worker thread exclusively through `runtime::Command` values pushed onto
// the shard's bounded MPSC queue; the worker answers through the command's
// completion callback, invoked with a `runtime::CommandResult` on the
// worker thread after the command has been applied. No shard state is ever
// touched from a producer thread.
//
// Thread-safety contract: Command and CommandResult are plain value types —
// thread-compatible, externally synchronized by the queue that carries them
// (a command is owned by the producer until try_push accepts it, then by
// the owning worker until the completion callback returns).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "conference/waitqueue.hpp"
#include "min/types.hpp"

namespace confnet::runtime {

class ResultSlot;

using u32 = min::u32;
using u64 = min::u64;

/// What a command asks the owning shard to do.
enum class CommandKind : std::uint8_t {
  kOpen,       // admit one conference of `size` members
  kOpenBatch,  // admit a burst of conferences in one open_batch pass
  kClose,      // close the open session `session`
  kReplace,    // close `session`, then admit a fresh `size`-member one
  kFailLink,   // fail interstage link (level, row); triggers recovery
  kRepairLink, // repair interstage link (level, row); drains waiters
};

[[nodiscard]] constexpr const char* command_name(CommandKind k) noexcept {
  switch (k) {
    case CommandKind::kOpen: return "open";
    case CommandKind::kOpenBatch: return "open_batch";
    case CommandKind::kClose: return "close";
    case CommandKind::kReplace: return "replace";
    case CommandKind::kFailLink: return "fail_link";
    case CommandKind::kRepairLink: return "repair_link";
  }
  return "?";
}

/// Synchronous verdict of a submit call. `kQueueFull` is backpressure from
/// the non-blocking Shard::submit: the command was NOT enqueued and its
/// completion will not run — the caller owns it again and may retry.
/// Runtime's producer calls never return it: they block for space.
enum class SubmitStatus : std::uint8_t {
  kAccepted,   // enqueued; completion will run on the owner thread
  kQueueFull,  // bounded queue at capacity; command returned to the caller
  kStopped,    // runtime stopped/stopping; completion ran with kRejectedStopped
};

/// How the command's execution ended.
enum class CommandStatus : std::uint8_t {
  kDone,             // applied by the owner thread; payload fields are valid
  kRejectedStopped,  // never applied: the runtime stopped first
};

/// Admission verdict of one open (or the open half of a replace).
struct OpenOutcome {
  conf::RequestOutcome outcome = conf::RequestOutcome::kRejected;
  std::optional<u32> session;  // set on kServed
  std::optional<conf::WaitQueueManager::Ticket> ticket;  // set on kQueued
};

/// What the owner thread reports back through the completion callback:
/// the ids this command touched, never running counts (those live in the
/// shard's ShardStats and RecoveryStats).
struct CommandResult {
  CommandKind kind = CommandKind::kOpen;
  CommandStatus status = CommandStatus::kRejectedStopped;
  u32 shard = 0;
  /// Owner-thread logical time at which the command was applied (commands
  /// processed before it on this shard). Deterministic — never wall clock.
  u64 applied_at = 0;

  OpenOutcome open;                 // kOpen / kReplace
  std::vector<OpenOutcome> batch;   // kOpenBatch, input order
  bool ok = false;                  // kClose/kReplace: session existed;
                                    // kFailLink/kRepairLink: state changed
  /// Waiters admitted as a side effect of this command (a close/replace
  /// freeing capacity, a repair restoring it).
  std::vector<conf::WaitQueueManager::ServedTicket> served;
  /// kFailLink: victim session ids (already closed by the shard). A front
  /// end tracking sessions by id (e.g. the cluster layer, whose spanning
  /// legs are shard sessions) folds these into its own bookkeeping.
  std::vector<u32> torn_sessions;
  /// kFailLink/kRepairLink: victims restored under a fresh session id,
  /// as (origin, replacement) pairs. The origin id is dead; the caller
  /// rehomes its records onto the replacement.
  std::vector<std::pair<u32, u32>> relocated;
};

/// One unit of work for a shard. Fields beyond `kind` are read per kind
/// (see CommandKind); unused fields are ignored.
struct Command {
  CommandKind kind = CommandKind::kOpen;
  u32 size = 0;                  // kOpen / kReplace
  u32 session = 0;               // kClose / kReplace
  u32 level = 0;                 // kFailLink / kRepairLink
  u32 row = 0;                   // kFailLink / kRepairLink
  std::vector<u32> batch_sizes;  // kOpenBatch
  /// Optional completion, invoked exactly once: on the owner thread after
  /// the command is applied, or inline on the submitting thread with
  /// kRejectedStopped when the runtime refuses it. Never invoked for
  /// kQueueFull (the command never left the caller).
  std::function<void(CommandResult&&)> done;
  /// Optional pooled completion (Runtime::call_pooled): fulfilled exactly
  /// once under the same protocol as `done`. Mutually exclusive with
  /// `done` — a command carries at most one completion channel. The slot
  /// is owned by the Runtime's ResultPool; the producer holds the matching
  /// PooledResult, which keeps the slot alive until fulfilled.
  ResultSlot* slot = nullptr;
};

}  // namespace confnet::runtime
