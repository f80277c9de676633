#include "analysis/min/dot.hpp"

#include <algorithm>
#include <ostream>

#include "util/error.hpp"

namespace confnet::min {

namespace {
bool is_highlighted(const DotOptions& options, u32 level, u32 row) {
  if (!options.highlight) return false;
  if (level >= options.highlight->levels()) return false;
  const std::span<const u32> rows = (*options.highlight)[level];
  return std::binary_search(rows.begin(), rows.end(), row);
}
}  // namespace

void write_dot(std::ostream& os, const Network& net,
               const DotOptions& options) {
  const u32 N = net.size();
  const u32 n = net.n();
  if (options.highlight)
    expects(options.highlight->levels() == n + 1,
            "highlight must carry n+1 levels");
  if (options.faults)
    expects(options.faults->n() == n, "fault set size mismatch");

  os << "digraph " << kind_name(net.kind()) << " {\n"
     << "  rankdir=LR;\n  node [shape=point];\n";
  if (!options.label.empty()) os << "  label=\"" << options.label << "\";\n";

  // Rank links of one level together so stages align vertically.
  for (u32 level = 0; level <= n; ++level) {
    os << "  { rank=same;";
    for (u32 row = 0; row < N; ++row)
      os << " l" << level << "_r" << row << ";";
    os << " }\n";
  }

  for (u32 level = 0; level <= n; ++level) {
    for (u32 row = 0; row < N; ++row) {
      os << "  l" << level << "_r" << row << " [";
      if (options.faults && options.faults->is_faulty(level, row)) {
        os << "color=red";
      } else if (is_highlighted(options, level, row)) {
        os << "color=blue, shape=circle, width=0.12";
      } else {
        os << "color=gray";
      }
      os << "];\n";
    }
  }

  for (u32 level = 0; level < n; ++level) {
    for (u32 row = 0; row < N; ++row) {
      for (u32 next : net.successors(level, row)) {
        os << "  l" << level << "_r" << row << " -> l" << (level + 1)
           << "_r" << next;
        const bool hl = is_highlighted(options, level, row) &&
                        is_highlighted(options, level + 1, next);
        const bool faulty =
            options.faults && (options.faults->is_faulty(level, row) ||
                               options.faults->is_faulty(level + 1, next));
        if (faulty) {
          os << " [color=red, style=dashed]";
        } else if (hl) {
          os << " [color=blue, penwidth=2]";
        } else {
          os << " [color=gray80]";
        }
        os << ";\n";
      }
    }
  }
  os << "}\n";
}

}  // namespace confnet::min
