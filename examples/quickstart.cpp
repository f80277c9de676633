// Quickstart: build a conference network, hold three conferences at once,
// and verify every member hears the full mix of their group.
//
//   ./quickstart [--n 5] [--topology cube] [--design direct|enhanced]
//
// Walks through the core public API: make a design, set up conferences on
// explicit member ports, inspect the realization, and functionally verify
// delivery through the fan-in/fan-out switch fabric.
#include <fstream>
#include <iostream>

#include "analysis/conference/multiplicity.hpp"
#include "analysis/min/dot.hpp"
#include "conference/designs.hpp"
#include "conference/subnetwork.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"

using namespace confnet;

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::kInfo);
  util::Cli cli("quickstart", "three conferences through one fabric");
  cli.add_int("n", 5, "log2 of the port count (N = 2^n)");
  cli.add_string("topology", "cube",
                 "omega | baseline | cube | butterfly | flip");
  cli.add_string("design", "enhanced", "direct (full dilation) | enhanced");
  cli.add_string("dot", "", "write a Graphviz view of the first conference");
  if (!cli.parse(argc, argv)) return 0;

  try {
    const auto n = static_cast<min::u32>(cli.get_int("n"));
    const min::Kind kind = min::kind_from_name(cli.get_string("topology"));

    std::unique_ptr<conf::ConferenceNetworkBase> net;
    if (cli.get_string("design") == "enhanced") {
      net = std::make_unique<conf::EnhancedCubeNetwork>(n);
    } else {
      net = std::make_unique<conf::DirectConferenceNetwork>(
          kind, n, conf::DilationProfile::full(n));
    }
    const min::u32 N = net->size();
    std::cout << "network: " << net->name() << " with " << N << " ports ("
              << n << " stages of " << N / 2
              << " fan-in/fan-out switch modules)\n\n";

    // Three disjoint conferences: a board call, a standup, a 1:1.
    const std::vector<std::vector<min::u32>> groups{
        {0, 1, 2, 3},          // board call on an aligned block
        {4, 5, 6},             // standup
        {N - 2, N - 1},        // 1:1 at the top of the port space
    };
    std::vector<min::u32> handles;
    for (const auto& members : groups) {
      const auto handle = net->setup(members);
      if (!handle) {
        std::cerr << "setup refused (capacity)\n";
        return 1;
      }
      std::cout << "conference #" << *handle << " up: members {";
      for (std::size_t i = 0; i < members.size(); ++i)
        std::cout << (i ? "," : "") << members[i];
      std::cout << "}, delivered after " << net->stages_for(*handle)
                << " stage(s)\n";
      handles.push_back(*handle);
    }

    std::cout << "\nfunctional verification (every member must hear exactly "
                 "its group's mix): "
              << (net->verify_delivery() ? "PASS" : "FAIL") << "\n";

    // Show what the analyzer says about this workload's conflicts.
    conf::ConferenceSet set(N);
    for (min::u32 i = 0; i < groups.size(); ++i)
      set.add(conf::Conference(i, groups[i]));
    const auto prof = conf::measure_multiplicity(kind, n, set);
    std::cout << "peak interstage link sharing of this workload on "
              << min::kind_name(kind) << ": " << prof.peak
              << " (worst case over all workloads: "
              << conf::theoretical_peak(n) << ")\n";

    if (const std::string path = cli.get_string("dot"); !path.empty()) {
      const min::Network view(kind, n);
      min::DotOptions options;
      options.highlight = conf::all_pairs_links(kind, n, groups[0]);
      options.label = "conference {0,1,2,3} on " +
                      std::string(min::kind_name(kind));
      std::ofstream out(path);
      min::write_dot(out, view, options);
      std::cout << "wrote Graphviz view to " << path << "\n";
    }

    for (min::u32 h : handles) net->teardown(h);
    std::cout << "all conferences torn down; fabric idle.\n\n";

    // What the observability layer saw (see ARCHITECTURE.md §3).
    obs::Registry::global().summary_table().print(std::cout);
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
