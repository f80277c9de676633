#include "analysis/sim/replication.hpp"

#include <vector>

#include "analysis/util/thread_pool.hpp"

namespace confnet::sim {

ReplicatedResult run_replications(const DesignFactory& factory,
                                  TeletrafficConfig config,
                                  std::size_t replications) {
  // Run replications in chunks (one std::function dispatch per chunk, not
  // per index) into indexed slots, then merge serially in replication
  // order so the aggregate is independent of thread scheduling.
  std::vector<TeletrafficResult> results(replications);
  util::global_pool().parallel_for_chunks(
      replications, [&](std::size_t begin, std::size_t end) {
        for (std::size_t rep = begin; rep < end; ++rep) {
          TeletrafficConfig c = config;
          c.seed = config.seed + rep;
          const auto design = factory();
          results[rep] = run_teletraffic(*design, c);
        }
      });
  ReplicatedResult agg;
  for (const TeletrafficResult& r : results) {
    agg.blocking.add(r.blocking_probability);
    agg.carried.add(r.mean_active_sessions);
    agg.busy_ports.add(r.mean_busy_ports);
    if (r.session_stages.n > 0) agg.stages.add(r.session_stages.mean);
    agg.total_attempts += r.stats.attempts;
    agg.total_blocked_capacity += r.stats.blocked_capacity;
    agg.total_blocked_placement += r.stats.blocked_placement;
    agg.functional_ok = agg.functional_ok && r.functional_ok;
  }
  return agg;
}

}  // namespace confnet::sim
