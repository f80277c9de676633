// Cluster chaos: seed-swept cluster teletraffic under live trunk AND shard
// link fault processes, asserting the cluster invariants end to end —
// periodic flattened-oracle cross-checks stay green, every interrupted
// conference is re-admitted or lost (never leaked), the trunk ledger stays
// conserving, and the final quiescent cluster still delivers identically
// to the single-fabric oracle. Exits non-zero on the first violation, so
// CI can gate on it (the cluster-soak job's chaos leg).
//
//   ./cluster_chaos --seeds 1..8 --trunk-fault-rate 0.1 --link-fault-rate 0.1
//                   --trace=cluster_chaos_trace.jsonl
#include <fstream>
#include <iostream>
#include <string>

#include "cluster/cluster.hpp"
#include "sim/cluster_traffic.hpp"
#include "util/audit.hpp"
#include "util/cli.hpp"
#include "util/trace.hpp"

using namespace confnet;

namespace {

/// Parse a "lo..hi" (or single "k") seed range.
bool parse_seed_range(const std::string& text, std::uint64_t& lo,
                      std::uint64_t& hi) {
  const auto dots = text.find("..");
  try {
    if (dots == std::string::npos) {
      lo = hi = std::stoull(text);
    } else {
      lo = std::stoull(text.substr(0, dots));
      hi = std::stoull(text.substr(dots + 2));
    }
  } catch (const std::exception&) {
    return false;
  }
  return lo <= hi;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("cluster_chaos",
                "cluster-teletraffic-under-faults invariant sweep "
                "(cluster-soak CI gate)");
  cli.add_int("shards", 4, "shard count (power of two)");
  cli.add_int("stages", 4, "log2 of the per-shard port count");
  cli.add_int("workers", 2, "runtime worker threads");
  cli.add_int("trunk-lanes", 2, "trunk lanes per shard pair");
  cli.add_int("conferences-per-lane", 1,
              "spanning conferences multiplexed onto one trunk lane");
  cli.add_int("retry-on-repair", 0,
              "1 = park fault victims until the matching repair fires "
              "(0 = legacy immediate re-offer)");
  cli.add_string("seeds", "1..8", "seed range lo..hi (or a single seed)");
  cli.add_double("span-fraction", 0.4, "fraction of arrivals spanning shards");
  cli.add_double("trunk-fault-rate", 0.1,
                 "trunk failures per unit time, cluster-wide (MTTF^-1)");
  cli.add_double("link-fault-rate", 0.1,
                 "shard link failures per unit time, cluster-wide (MTTF^-1)");
  cli.add_double("repair-rate", 1.0, "per-fault repair rate (MTTR^-1)");
  cli.add_double("arrival-rate", 4.0, "conference arrivals per unit time");
  cli.add_double("duration", 300.0, "simulated time per run");
  cli.add_string("trace", "", "dump the obs event trace to this JSONL path");
  if (!cli.parse(argc, argv)) return 0;

  try {
    const std::string trace_path = cli.get_string("trace");
    std::uint64_t seed_lo = 0;
    std::uint64_t seed_hi = 0;
    if (!parse_seed_range(cli.get_string("seeds"), seed_lo, seed_hi)) {
      std::cerr << "error: bad --seeds range '" << cli.get_string("seeds")
                << "' (expected lo..hi)\n";
      return 2;
    }
    if (!trace_path.empty()) obs::Tracer::global().enable(std::size_t{1} << 16);

    cluster::ClusterConfig base_cluster;
    base_cluster.shards = static_cast<min::u32>(cli.get_int("shards"));
    base_cluster.stages = static_cast<min::u32>(cli.get_int("stages"));
    base_cluster.workers = static_cast<min::u32>(cli.get_int("workers"));
    base_cluster.trunk_lanes =
        static_cast<min::u32>(cli.get_int("trunk-lanes"));
    base_cluster.conferences_per_lane =
        static_cast<min::u32>(cli.get_int("conferences-per-lane"));

    sim::ClusterTrafficConfig base;
    base.traffic.arrival_rate = cli.get_double("arrival-rate");
    base.traffic.mean_holding = 2.0;
    base.traffic.min_size = 2;
    base.traffic.max_size = 6;
    base.span_fraction = cli.get_double("span-fraction");
    base.duration = cli.get_double("duration");
    base.warmup = base.duration / 6.0;
    base.trunk_fault_rate = cli.get_double("trunk-fault-rate");
    base.trunk_repair_rate = cli.get_double("repair-rate");
    base.link_fault_rate = cli.get_double("link-fault-rate");
    base.link_repair_rate = cli.get_double("repair-rate");
    base.retry_on_repair = cli.get_int("retry-on-repair") != 0;
    base.verify_functional = true;
    base.verify_interval = base.duration / 12.0;

    int runs = 0;
    int violations = 0;
    std::uint64_t total_trunk_faults = 0;
    std::uint64_t total_link_faults = 0;
    std::uint64_t total_interrupted = 0;
    std::uint64_t total_reopened = 0;
    std::uint64_t total_lost = 0;
    for (std::uint64_t seed = seed_lo; seed <= seed_hi; ++seed) {
      cluster::ClusterConfig ccfg = base_cluster;
      ccfg.seed = seed;
      cluster::Cluster c(ccfg);
      sim::ClusterTrafficConfig cfg = base;
      cfg.seed = seed;
      const sim::ClusterTrafficResult r = sim::run_cluster_traffic(c, cfg);
      ++runs;
      total_trunk_faults += r.stats.trunk_failures;
      total_link_faults += r.stats.link_failures;
      total_interrupted += r.interrupted;
      total_reopened += r.reopened;
      total_lost += r.lost;

      std::string failed;
      if (!r.functional_ok) failed += " periodic-cross-check";
      if (!r.stats.consistent()) failed += " stats-conservation";
      if (r.interrupted != r.reopened + r.lost)
        failed += " interrupt-conservation";
      try {
        c.cross_check();
      } catch (const audit::AuditError& e) {
        failed += std::string(" final-cross-check[") + e.what() + "]";
      }
      if (cfg.trunk_fault_rate > 0.0 && r.stats.trunk_failures == 0)
        failed += " no-trunk-faults-injected";
      if (cfg.link_fault_rate > 0.0 && r.stats.link_failures == 0)
        failed += " no-link-faults-injected";
      std::cout << "seed " << seed << ": " << r.stats.trunk_failures
                << " trunk faults, " << r.stats.link_failures
                << " link faults, " << r.interrupted << " interrupted ("
                << r.reopened << " reopened, " << r.lost
                << " lost), span blocking "
                << r.span_blocking << " (trunk " << r.span_trunk_blocking
                << "), trunk util " << r.trunk_utilization
                << (failed.empty() ? " [ok]" : " [FAIL:" + failed + "]")
                << "\n";
      if (!failed.empty()) ++violations;
      c.stop();
    }
    std::cout << "\n" << runs << " runs: " << total_trunk_faults
              << " trunk faults, " << total_link_faults << " link faults, "
              << total_interrupted << " interrupted, " << total_reopened
              << " reopened, " << total_lost << " lost; " << violations
              << " violation(s)\n";

    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      obs::Tracer::global().dump_jsonl(out);
      std::cout << "trace written to " << trace_path << "\n";
    }
    return violations == 0 ? 0 : 1;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
