// Cluster-level admission and fault accounting.
//
// Plain counters maintained by the cluster coordinator; the conservation
// law over them (every open splits into exactly one outcome, every
// accepted conference is live, closed, or interrupted, and rollbacks never
// exceed reservations) is the `audit::check_cluster` invariant.
//
// Thread-safety: thread-compatible value type, externally synchronized by
// the Cluster that owns it.
#pragma once

#include "min/types.hpp"

namespace confnet::cluster {

using u64 = min::u64;

struct ClusterStats {
  // Single-shard (intra) admission, served by one shard's control plane.
  u64 intra_opens = 0;
  u64 intra_accepted = 0;
  u64 intra_blocked = 0;
  u64 intra_closes = 0;
  u64 intra_interrupted = 0;  // torn by a shard link fault, not repacked

  // Cross-shard (spanning) admission through reserve-then-commit.
  u64 span_opens = 0;
  u64 span_accepted = 0;
  u64 span_blocked_local = 0;  // a shard refused its leg reservation
  u64 span_blocked_trunk = 0;  // trunk tree exhausted/faulty at commit
  u64 span_closes = 0;
  u64 span_interrupted = 0;    // torn by a trunk or shard link fault

  // Two-phase bookkeeping: legs opened during reserve, and legs closed
  // again because a later leg or the trunk commit failed.
  u64 legs_reserved = 0;
  u64 legs_rolled_back = 0;

  // Fault process, cluster view.
  u64 trunk_failures = 0;
  u64 trunk_repairs = 0;
  u64 link_failures = 0;
  u64 link_repairs = 0;

  /// Admission identities (the cheap half of the conservation law; the
  /// full audit also recounts trunk lanes against the live table).
  [[nodiscard]] bool consistent() const noexcept {
    return intra_opens == intra_accepted + intra_blocked &&
           span_opens ==
               span_accepted + span_blocked_local + span_blocked_trunk &&
           intra_closes + intra_interrupted <= intra_accepted &&
           span_closes + span_interrupted <= span_accepted &&
           legs_rolled_back <= legs_reserved;
  }
};

}  // namespace confnet::cluster
