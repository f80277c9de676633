#include "runtime/shard_obs.hpp"

#include <algorithm>

namespace confnet::runtime {

void ShardStats::merge(const ShardStats& other) noexcept {
  opens += other.opens;
  accepted += other.accepted;
  queued += other.queued;
  rejected += other.rejected;
  closes += other.closes;
  recovery.merge(other.recovery);
  rejected_stopped += other.rejected_stopped;
  submit_bounced += other.submit_bounced;
  bursts += other.bursts;
  max_burst = std::max(max_burst, other.max_burst);
  max_queue_depth = std::max(max_queue_depth, other.max_queue_depth);
  completed += other.completed;
  active_sessions += other.active_sessions;
}

}  // namespace confnet::runtime
