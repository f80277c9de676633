// Capacity planner: given a port count and workload assumptions, compare
// every design the library offers — conflict behaviour, required dilation,
// hardware cost and delivery latency — and recommend one.
//
//   ./capacity_planner --ports 256 --concurrent 16 --placement-controlled
#include <iostream>

#include "analysis/conference/multiplicity.hpp"
#include "analysis/cost/cost.hpp"
#include "util/bits.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace confnet;

int main(int argc, char** argv) {
  util::Cli cli("capacity_planner", "choose a conference network design");
  cli.add_int("ports", 256, "member ports (rounded up to a power of two)");
  cli.add_int("concurrent", 16, "max simultaneous conferences to support");
  cli.add_flag("placement-controlled", true,
               "system assigns member ports (buddy placement possible)");
  if (!cli.parse(argc, argv)) return 0;

  try {
    const auto ports = static_cast<util::u64>(cli.get_int("ports"));
    const auto g = static_cast<min::u32>(cli.get_int("concurrent"));
    const bool placed = cli.get_flag("placement-controlled");
    const min::u32 n = util::log2_ceil(std::max<util::u64>(ports, 2));
    const util::u64 N = util::u64{1} << n;
    std::cout << "planning for N=" << N << " ports (n=" << n << " stages), "
              << g << " concurrent conferences, placement "
              << (placed ? "system-controlled" : "caller-controlled") << "\n\n";

    util::Table t("design comparison",
                  {"design", "conflict-free?", "required dilation",
                   "total gates", "mux gates", "stages to delivery"});

    const auto full = conf::DilationProfile::full(n);
    const auto bounded = conf::DilationProfile::bounded(n, g);
    const auto unit = conf::DilationProfile::uniform(n, 1);

    t.row()
        .cell("direct cube/omega/butterfly d=1 + buddy placement")
        .cell(placed ? "yes (R2)" : "NO without placement")
        .cell(1)
        .cell(cost::direct_cost(n, unit).total_gates())
        .cell(0)
        .cell(n);
    t.row()
        .cell("enhanced cube (mux relay) + buddy placement")
        .cell(placed ? "yes" : "NO without placement")
        .cell(1)
        .cell(cost::enhanced_cube_cost(n).total_gates())
        .cell(cost::enhanced_cube_cost(n).mux_gates)
        .cell(std::string("ceil(log2 m) per conference"));
    t.row()
        .cell("direct, bounded dilation g=" + std::to_string(g))
        .cell("yes for <= g conferences anywhere")
        .cell(std::min(g, conf::theoretical_peak(n)))
        .cell(cost::direct_cost(n, bounded).total_gates())
        .cell(0)
        .cell(n);
    t.row()
        .cell("direct, full dilation")
        .cell("yes, unconditionally")
        .cell(conf::theoretical_peak(n))
        .cell(cost::direct_cost(n, full).total_gates())
        .cell(0)
        .cell(n);
    t.row()
        .cell("NxN crossbar")
        .cell("yes, unconditionally")
        .cell(1)
        .cell(cost::crossbar_cost(n).total_gates())
        .cell(0)
        .cell(1);
    t.print(std::cout);

    std::cout << "\nrecommendation: ";
    if (placed) {
      std::cout
          << "direct adoption of the indirect binary cube (or omega/"
             "butterfly)\nat unit dilation with buddy placement — "
             "conflict-free (R2), cheapest hardware,\ntrivial bit-level "
             "self-routing. Choose the enhanced cube instead if per-\n"
             "conference latency (ceil(log2 m) stages) matters more than "
          << cost::enhanced_cube_cost(n).mux_gates << " mux gates.\n";
    } else if (g < conf::theoretical_peak(n)) {
      std::cout << "bounded dilation d=" << std::min(g, conf::theoretical_peak(n))
                << ": caller-controlled placement forces fabric-level "
                   "conflict absorption,\nbut capping concurrency at "
                << g << " keeps it affordable.\n";
    } else {
      std::cout << "full dilation (or a crossbar — same cost order): "
                   "arbitrary placement with\nunbounded concurrency is "
                   "exactly as expensive as the multiplicity analysis "
                   "says.\n";
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
