#include "analysis/sim/erlang.hpp"

#include "util/error.hpp"

namespace confnet::sim {

double erlang_b(double offered_erlangs, std::uint32_t servers) {
  expects(offered_erlangs >= 0.0, "offered load must be non-negative");
  if (offered_erlangs == 0.0) return 0.0;
  double b = 1.0;
  for (std::uint32_t m = 1; m <= servers; ++m)
    b = offered_erlangs * b / (static_cast<double>(m) + offered_erlangs * b);
  return b;
}

std::uint32_t erlang_b_servers(double offered_erlangs,
                               double target_blocking) {
  expects(target_blocking > 0.0 && target_blocking < 1.0,
          "target blocking must be in (0,1)");
  std::uint32_t servers = 0;
  double b = 1.0;
  while (b > target_blocking) {
    ++servers;
    b = offered_erlangs * b /
        (static_cast<double>(servers) + offered_erlangs * b);
    expects(servers < 1u << 24, "erlang_b_servers diverged");
  }
  return servers;
}

std::vector<double> kaufman_roberts_blocking(
    std::uint32_t total_ports, const std::vector<TrafficClass>& classes) {
  expects(total_ports >= 1, "need at least one port");
  for (const auto& c : classes) {
    expects(c.ports >= 1, "class must demand at least one port");
    expects(c.erlangs >= 0.0, "class load must be non-negative");
  }
  // Unnormalized occupancy distribution q(j), j = ports in use:
  //   j * q(j) = sum_k a_k * b_k * q(j - b_k).
  std::vector<double> q(total_ports + 1, 0.0);
  q[0] = 1.0;
  for (std::uint32_t j = 1; j <= total_ports; ++j) {
    double acc = 0.0;
    for (const auto& c : classes) {
      if (c.ports <= j)
        acc += c.erlangs * static_cast<double>(c.ports) * q[j - c.ports];
    }
    q[j] = acc / static_cast<double>(j);
  }
  double norm = 0.0;
  for (double v : q) norm += v;
  // Class-k blocking: probability that fewer than b_k ports are free.
  std::vector<double> blocking(classes.size(), 0.0);
  for (std::size_t k = 0; k < classes.size(); ++k) {
    double tail = 0.0;
    const std::uint32_t need = classes[k].ports;
    for (std::uint32_t j = (total_ports >= need - 1)
                               ? total_ports - need + 1
                               : 0;
         j <= total_ports; ++j)
      tail += q[j];
    blocking[k] = tail / norm;
  }
  return blocking;
}

double aggregate_blocking(const std::vector<double>& per_class_blocking,
                          const std::vector<double>& arrival_weights) {
  expects(per_class_blocking.size() == arrival_weights.size(),
          "per-class sizes must match");
  double num = 0.0, den = 0.0;
  for (std::size_t k = 0; k < per_class_blocking.size(); ++k) {
    num += per_class_blocking[k] * arrival_weights[k];
    den += arrival_weights[k];
  }
  return den == 0.0 ? 0.0 : num / den;
}

}  // namespace confnet::sim
