// Day-in-the-life teleconference service: Poisson conference arrivals,
// exponential holding, talk spurts, periodic functional audits — the
// workload the paper's introduction motivates, against a chosen design.
//
//   ./teleconference --n 8 --design enhanced --erlangs 12 --policy buddy
#include <iostream>
#include <sstream>

#include "conference/designs.hpp"
#include "sim/teletraffic.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/table.hpp"

using namespace confnet;

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::kInfo);
  util::Cli cli("teleconference", "dynamic conference service simulation");
  cli.add_int("n", 8, "log2 of the port count");
  cli.add_string("design", "enhanced",
                 "enhanced | direct-d1 | direct-full (topology = cube)");
  cli.add_string("topology", "cube", "topology for direct designs");
  cli.add_string("policy", "buddy", "buddy | first-fit | random placement");
  cli.add_double("erlangs", 12.0, "offered load (mean concurrent sessions)");
  cli.add_double("mean-holding", 2.0, "mean session duration");
  cli.add_int("min-size", 2, "smallest conference");
  cli.add_int("max-size", 10, "largest conference");
  cli.add_double("duration", 1000.0, "simulated time");
  cli.add_int("seed", 1, "RNG seed");
  cli.add_flag("churn", true, "members join/leave during sessions");
  cli.add_double("join-rate", 0.5, "joins per session per unit time");
  cli.add_double("leave-rate", 0.5, "leaves per session per unit time");
  if (!cli.parse(argc, argv)) return 0;

  try {
    const auto n = static_cast<min::u32>(cli.get_int("n"));
    const std::string design = cli.get_string("design");
    const min::Kind kind = min::kind_from_name(cli.get_string("topology"));

    std::unique_ptr<conf::ConferenceNetworkBase> net;
    if (design == "enhanced") {
      net = std::make_unique<conf::EnhancedCubeNetwork>(n);
    } else if (design == "direct-d1") {
      net = std::make_unique<conf::DirectConferenceNetwork>(
          kind, n, conf::DilationProfile::uniform(n, 1));
    } else if (design == "direct-full") {
      net = std::make_unique<conf::DirectConferenceNetwork>(
          kind, n, conf::DilationProfile::full(n));
    } else {
      std::cerr << "unknown design: " << design << '\n';
      return 1;
    }

    sim::TeletrafficConfig c;
    c.traffic.mean_holding = cli.get_double("mean-holding");
    c.traffic.arrival_rate = cli.get_double("erlangs") / c.traffic.mean_holding;
    c.traffic.min_size = static_cast<min::u32>(cli.get_int("min-size"));
    c.traffic.max_size = static_cast<min::u32>(cli.get_int("max-size"));
    const std::string policy = cli.get_string("policy");
    c.policy = policy == "buddy"       ? conf::PlacementPolicy::kBuddy
               : policy == "first-fit" ? conf::PlacementPolicy::kFirstFit
                                       : conf::PlacementPolicy::kRandom;
    c.duration = cli.get_double("duration");
    c.warmup = c.duration / 10.0;
    c.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    c.talk_spurts = true;
    c.verify_functional = true;
    c.verify_interval = c.duration / 10.0;
    c.membership_churn = cli.get_flag("churn");
    c.join_rate = cli.get_double("join-rate");
    c.leave_rate = cli.get_double("leave-rate");

    std::cout << "simulating " << net->name() << ", N=" << net->size()
              << ", offered " << c.traffic.offered_erlangs()
              << " Erlangs, placement=" << policy << " ...\n";
    const sim::TeletrafficResult r = sim::run_teletraffic(*net, c);

    // Session counts and rates skip the warmup; joins, leaves, audits and
    // events count the whole run (sim::TeletrafficResult).
    std::ostringstream title;
    title << "day-in-the-life report (sessions after warmup t=" << c.warmup
          << ")";
    util::Table t(title.str(), {"metric", "value"});
    t.row().cell("session attempts").cell(r.stats.attempts);
    t.row().cell("accepted").cell(r.stats.accepted);
    t.row().cell("blocked (no ports)").cell(r.stats.blocked_placement);
    t.row().cell("blocked (fabric conflicts)").cell(r.stats.blocked_capacity);
    t.row().cell("blocking probability").cell(r.blocking_probability, 4);
    t.row().cell("carried Erlangs").cell(r.mean_active_sessions, 4);
    t.row().cell("Little's-law cross-check").cell(r.littles_law_estimate, 4);
    t.row().cell("mean busy ports").cell(r.mean_busy_ports, 4);
    t.row().cell("mean stages to delivery").cell(r.session_stages.mean, 4);
    t.row().cell("mean concurrent speakers/conf")
        .cell(r.speaker_concurrency.mean, 4);
    t.row().cell("member joins / blocked").cell(
        std::to_string(r.joins) + " / " + std::to_string(r.joins_blocked));
    t.row().cell("member leaves").cell(r.leaves);
    t.row().cell("functional audits").cell(r.functional_checks);
    t.row().cell("all audits passed").cell(r.functional_ok ? "yes" : "NO");
    t.row().cell("DES events").cell(r.events);
    t.print(std::cout);

    // The observability layer's view from inside the library (see
    // ARCHITECTURE.md §3). It covers the whole run, warmup included: the
    // session manager folds its lifetime counts into the registry once,
    // when the run ends, so conf/open_attempts exceeds the post-warmup
    // "session attempts" above by the warmup's attempts.
    std::cout << "\nregistry counters (whole run, warmup included):\n";
    obs::Registry::global().summary_table().print(std::cout);
    return r.functional_ok ? 0 : 1;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
