// ASCII bar charts: the bench binaries print figure-style series as
// horizontal bars so the "figures" of EXPERIMENTS.md are readable straight
// from a terminal capture.
#pragma once

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace confnet::bench {

/// Render label/value pairs as left-aligned bars scaled to `width` columns.
/// Non-negative values only; the longest bar spans the full width.
[[nodiscard]] inline std::string bar_chart(
    const std::vector<std::pair<std::string, double>>& series,
    std::size_t width = 48) {
  expects(width >= 1, "bar chart needs positive width");
  double peak = 0.0;
  std::size_t label_width = 0;
  for (const auto& [label, value] : series) {
    expects(value >= 0.0, "bar chart values must be non-negative");
    peak = std::max(peak, value);
    label_width = std::max(label_width, label.size());
  }
  std::ostringstream os;
  for (const auto& [label, value] : series) {
    const auto bars =
        peak > 0.0
            ? static_cast<std::size_t>(value / peak *
                                       static_cast<double>(width))
            : std::size_t{0};
    os << "  " << label << std::string(label_width - label.size(), ' ')
       << " |" << std::string(bars, '#') << ' ' << util::format_double(value)
       << '\n';
  }
  return os.str();
}

}  // namespace confnet::bench
