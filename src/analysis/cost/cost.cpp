#include "analysis/cost/cost.hpp"

#include "analysis/switchmod/mux.hpp"
#include "util/error.hpp"

namespace confnet::cost {

CostBreakdown direct_cost(u32 n, const conf::DilationProfile& dilation) {
  expects(dilation.n() == n, "dilation profile size mismatch");
  const u64 N = u64{1} << n;
  CostBreakdown cost;
  cost.switch_modules = n * (N / 2);
  for (u32 stage = 1; stage <= n; ++stage) {
    const u64 d_in = dilation.channels(stage - 1);
    const u64 d_out = dilation.channels(stage);
    // (2*d_in) x (2*d_out) crossbar with a combiner on every output pin.
    cost.crosspoints += (N / 2) * (2 * d_in) * (2 * d_out);
    cost.combiner_gates += (N / 2) * (2 * d_out);
  }
  cost.link_channels = dilation.total_channels();
  return cost;
}

CostBreakdown enhanced_cube_cost(u32 n) {
  const u64 N = u64{1} << n;
  CostBreakdown cost = direct_cost(n, conf::DilationProfile::uniform(n, 1));
  cost.mux_count = N;
  cost.mux_gates = N * sw::Multiplexer::gate_cost(n + 1);
  return cost;
}

CostBreakdown replicated_cost(u32 n, u32 planes) {
  expects(planes >= 1, "need at least one plane");
  const u64 N = u64{1} << n;
  const CostBreakdown base =
      direct_cost(n, conf::DilationProfile::uniform(n, 1));
  CostBreakdown cost;
  cost.switch_modules = base.switch_modules * planes;
  cost.crosspoints = base.crosspoints * planes;
  cost.combiner_gates = base.combiner_gates * planes;
  cost.link_channels = base.link_channels * planes;
  // Per port: one 1-to-r demux on the input side and one r-to-1 mux on the
  // output side; both cost (r-1) two-input gate equivalents.
  cost.mux_count = 2 * N;
  cost.mux_gates = 2 * N * sw::Multiplexer::gate_cost(planes);
  return cost;
}

CostBreakdown crossbar_cost(u32 n) {
  const u64 N = u64{1} << n;
  CostBreakdown cost;
  cost.switch_modules = 1;
  cost.crosspoints = N * N;
  cost.combiner_gates = N;
  cost.link_channels = 0;
  return cost;
}

}  // namespace confnet::cost
