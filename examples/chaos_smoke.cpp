// Chaos smoke: seed-swept teletraffic runs under a live link-fault process,
// asserting the fault-tolerance invariants end to end — periodic functional
// checks stay green, every interrupted session is accounted for, and the
// surviving sessions still deliver on the (possibly degraded) fabric by
// both the incremental state and the stateless oracle. Exits non-zero on
// the first violation, so CI can gate on it.
//
//   ./chaos_smoke --seeds 1..8 --fault-rate 0.2 --repair-rate 1.0
//                 --trace=chaos_trace.jsonl
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "sim/teletraffic.hpp"
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
  util::Cli cli("chaos_smoke",
                "teletraffic-under-faults invariant sweep (CI chaos gate)");
  cli.add_int("n", 5, "log2 of the port count");
  cli.add_string("design", "both", "direct | enhanced | both");
  cli.add_string("seeds", "1..8", "seed range lo..hi (or a single seed)");
  cli.add_double("fault-rate", 0.2, "link failures per unit time (MTTF^-1)");
  cli.add_double("repair-rate", 1.0, "per-link repair rate (MTTR^-1)");
  cli.add_double("arrival-rate", 2.0, "session arrivals per unit time");
  cli.add_double("duration", 300.0, "simulated time per run");
  cli.add_string("trace", "", "dump the obs event trace to this JSONL path");
  if (!cli.parse(argc, argv)) return 0;

  try {
    const auto n = static_cast<min::u32>(cli.get_int("n"));
    const std::string design = cli.get_string("design");
    const std::string trace_path = cli.get_string("trace");
    std::uint64_t seed_lo = 0;
    std::uint64_t seed_hi = 0;
    if (!parse_seed_range(cli.get_string("seeds"), seed_lo, seed_hi)) {
      std::cerr << "error: bad --seeds range '" << cli.get_string("seeds")
                << "' (expected lo..hi)\n";
      return 2;
    }
    if (!trace_path.empty()) obs::Tracer::global().enable(std::size_t{1} << 16);

    sim::TeletrafficConfig base;
    base.traffic.arrival_rate = cli.get_double("arrival-rate");
    base.traffic.mean_holding = 2.0;
    base.traffic.min_size = 2;
    base.traffic.max_size = 6;
    base.duration = cli.get_double("duration");
    base.warmup = base.duration / 6.0;
    base.verify_functional = true;
    base.verify_interval = 20.0;
    base.fault_rate = cli.get_double("fault-rate");
    base.repair_rate = cli.get_double("repair-rate");

    int runs = 0;
    int violations = 0;
    std::uint64_t total_failures = 0;
    std::uint64_t total_interrupted = 0;
    std::uint64_t total_recovered = 0;
    std::uint64_t total_dropped = 0;
    for (const bool enhanced : {false, true}) {
      if (design == "direct" && enhanced) continue;
      if (design == "enhanced" && !enhanced) continue;
      for (std::uint64_t seed = seed_lo; seed <= seed_hi; ++seed) {
        std::unique_ptr<conf::ConferenceNetworkBase> net;
        if (enhanced)
          net = std::make_unique<conf::EnhancedCubeNetwork>(n);
        else
          net = std::make_unique<conf::DirectConferenceNetwork>(
              min::Kind::kOmega, n, conf::DilationProfile::full(n));
        sim::TeletrafficConfig c = base;
        c.seed = seed;
        const sim::TeletrafficResult r = sim::run_teletraffic(*net, c);
        const conf::RecoveryStats& rs = r.recovery;
        ++runs;
        total_failures += rs.link_failures;
        total_interrupted += rs.sessions_interrupted;
        total_recovered += rs.recovered();
        total_dropped += rs.dropped;

        std::string failed;
        if (!r.functional_ok) failed += " functional-check";
        if (rs.sessions_interrupted !=
            rs.recovered() + rs.dropped + rs.expired + r.recovery_pending)
          failed += " interrupt-conservation";
        if (!net->verify_delivery()) failed += " incremental-delivery";
        if (!net->verify_delivery_reference()) failed += " oracle-delivery";
        if (c.fault_rate > 0.0 && rs.link_failures == 0)
          failed += " no-faults-injected";
        std::cout << net->name() << " seed " << seed << ": "
                  << rs.link_failures << " failures, "
                  << rs.sessions_interrupted << " interrupted, "
                  << rs.recovered() << " recovered, "
                  << rs.dropped << " dropped, degraded fraction "
                  << r.degraded_fraction
                  << (failed.empty() ? " [ok]" : " [FAIL:" + failed + "]")
                  << "\n";
        if (!failed.empty()) ++violations;
      }
    }
    std::cout << "\n" << runs << " runs: " << total_failures
              << " link failures, " << total_interrupted << " interrupted, "
              << total_recovered << " recovered, " << total_dropped
              << " dropped; " << violations << " violation(s)\n";

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
