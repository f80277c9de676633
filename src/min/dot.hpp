// Graphviz export: render a network's stage graph — optionally with a
// highlighted conference subnetwork or fault set — as a dot digraph for
// papers, debugging and teaching. Output is deterministic (stable node
// naming) so tests can assert on it.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "min/faults.hpp"
#include "min/level_links.hpp"
#include "min/network.hpp"

namespace confnet::min {

struct DotOptions {
  /// Highlight these link rows per level (e.g. a conference subnetwork).
  std::optional<LevelLinks> highlight;
  /// Mark these links as faulty (drawn dashed red).
  const FaultSet* faults = nullptr;
  /// Graph title.
  std::string label = "";
};

/// Write the network's link graph: one node per link (level,row), one edge
/// per stage hop. Nodes are named l<level>_r<row>.
void write_dot(std::ostream& os, const Network& net,
               const DotOptions& options = {});

}  // namespace confnet::min
