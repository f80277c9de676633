#include "runtime/shard_obs.hpp"

#include <algorithm>
#include <ostream>

#include "util/json.hpp"

namespace confnet::runtime {

void ShardStats::merge(const ShardStats& other) noexcept {
  opens += other.opens;
  accepted += other.accepted;
  queued += other.queued;
  rejected += other.rejected;
  closes += other.closes;
  replaces += other.replaces;
  recovery.merge(other.recovery);
  rejected_stopped += other.rejected_stopped;
  submit_bounced += other.submit_bounced;
  bursts += other.bursts;
  max_burst = std::max(max_burst, other.max_burst);
  max_queue_depth = std::max(max_queue_depth, other.max_queue_depth);
  completed += other.completed;
  active_sessions += other.active_sessions;
}

void ShardTrace::dump_jsonl(std::ostream& os, u32 shard) const {
  const std::size_t n = ring_.size();
  for (std::size_t i = 0; i < n; ++i) {
    // Oldest-first: once the ring wrapped, head_ points at the oldest slot.
    const ShardTraceRecord& r =
        ring_[n < capacity_ ? i : (head_ + i) % capacity_];
    util::JsonWriter w(os);
    w.begin_object();
    w.key("shard");
    w.value(static_cast<std::uint64_t>(shard));
    w.key("seq");
    w.value(r.seq);
    w.key("time");
    w.value(r.time);
    w.key("name");
    w.value(r.name);
    w.key("value");
    w.value(r.value);
    w.end_object();
    os << '\n';
  }
}

}  // namespace confnet::runtime
