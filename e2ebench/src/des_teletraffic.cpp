// des_teletraffic: sim::run_teletraffic on one N=1024 fabric, single
// threaded, no runtime or cluster. Each round is one replication on a
// fresh fabric wrapped in the timing decorator, so open latency here is
// the fabric admission call (setup) the simulator makes per accepted
// placement, and close latency its teardown.
#include <algorithm>

#include "harness.hpp"
#include "sim/teletraffic.hpp"
#include "workloads.hpp"

namespace confnet::e2e {
namespace {

constexpr double kDuration = 100.0;  // simulated units per round
constexpr double kWarmup = 20.0;
constexpr double kSamplesPerUnit = 60.0;  // > the 40 arrivals a unit

FabricGeometry des_geometry() {
  return FabricGeometry{10, 4, conf::PlacementPolicy::kBuddy, 1};
}

sim::TeletrafficConfig des_config(u64 seed, double duration) {
  sim::TeletrafficConfig cfg;
  cfg.traffic.arrival_rate = 40.0;
  cfg.traffic.mean_holding = 2.0;
  cfg.traffic.min_size = 2;
  cfg.traffic.max_size = 16;
  cfg.policy = conf::PlacementPolicy::kBuddy;
  cfg.duration = duration;
  cfg.warmup = std::min(kWarmup, duration / 4.0);
  cfg.seed = seed;
  cfg.verify_functional = true;
  cfg.verify_interval = 0.5;
  cfg.membership_churn = true;
  return cfg;
}

class DesTeletraffic final : public Workload {
 public:
  DesTeletraffic(const Pinning& pinning, double scale)
      : pinning_(pinning), duration_(kDuration * scale) {}

  double setup_sample() override {
    const u64 t0 = now_ns();
    TimedNetwork net(make_fabric(des_geometry()));
    const u64 t1 = now_ns();
    return static_cast<double>(t1 - t0) / 1e9;
  }

  void run_round(u64 seed, SpanBuffer* spans, Round& out) override {
    pinning_.after_start();  // the load thread's CPU; there are no workers
    TimedNetwork net(make_fabric(des_geometry()));
    const auto samples = static_cast<std::size_t>(duration_ * kSamplesPerUnit);
    out.open_ns.reserve(samples);
    out.close_ns.reserve(samples);
    net.setup_samples = &out.open_ns;
    net.teardown_samples = &out.close_ns;
    std::vector<ShardStream> streams(1);
    const u32 round_span =
        spans ? spans->open("sim.run_teletraffic", 0, kNoSpan) : kNoSpan;
    if (spans != nullptr) {
      net.stream = &streams[0];
      net.spans = spans;
      net.parent = round_span;
    }
    const sim::TeletrafficConfig cfg = des_config(seed, duration_);
    const u64 t0 = now_ns();
    sim::TeletrafficResult res;
    try {
      res = sim::run_teletraffic(net, cfg);
    } catch (const std::exception&) {
      ++out.failed;
    }
    const u64 t1 = now_ns();
    if (spans != nullptr) spans->close(round_span);
    out.window_s = static_cast<double>(t1 - t0) / 1e9;
    out.ops = res.events - res.functional_checks;
    out.events = res.events;
    out.opens = res.stats.attempts;
    out.blocked = res.stats.attempts - res.stats.accepted;
    const bool ok = res.functional_ok && res.functional_checks > 0 &&
                    res.stats.attempts == res.stats.accepted +
                                              res.stats.blocked_placement +
                                              res.stats.blocked_capacity +
                                              res.stats.blocked_fault &&
                    res.stats.blocked_fault == 0 && net.verify_delivery();
    if (!ok) ++out.failed;
    if (spans != nullptr) record_trace(net, res, t1 - t0, streams);
  }

  LayerInputs layer_inputs() override { return std::move(last_); }

 private:
  void record_trace(const TimedNetwork& net, const sim::TeletrafficResult& res,
                    u64 wall_ns, std::vector<ShardStream>& streams) {
    last_ = LayerInputs{};
    last_.geometry = des_geometry();
    last_.streams = std::move(streams);
    last_.check_verdicts = false;  // the stream omits joins and leaves
    last_.attempts = res.stats.attempts;
    last_.blocked_placement = res.stats.blocked_placement;
    last_.blocked_capacity = res.stats.blocked_capacity;
    last_.live_switchmod = net.times();
    last_.live_switchmod->wall_ns = wall_ns;
    const double events = static_cast<double>(res.events);
    last_.values = {
        {"sim.events", events},
        {"sim.self_us_per_event",
         static_cast<double>(wall_ns - net.times().total_ns()) / 1000.0 /
             events},
    };
  }

  const Pinning& pinning_;
  double duration_;
  LayerInputs last_;
};

}  // namespace

std::unique_ptr<Workload> make_des_teletraffic(const Pinning& p,
                                               double scale) {
  return std::make_unique<DesTeletraffic>(p, scale);
}

}  // namespace confnet::e2e
