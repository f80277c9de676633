// Per-layer metrics of a traced run. The benchmark times only calls it
// makes itself, so each layer below the workload's entry point is measured
// by replaying the workload's recorded admission stream through that
// layer alone, serially on the load thread:
//   runtime    — probes on an idle Runtime of the workload's geometry: a
//                no-op command round trip, and a staged fan-out to 2-3
//                shards (the span path's hand-off);
//   conference — WaitQueueManager request/close on each shard's stream,
//                with the verdicts checked against the live run, and a
//                bare placer replay of the same sizes;
//   switchmod  — the fabric calls of that conference replay, seen through
//                the timing decorator, plus a delivery check every 1024
//                operations (the DES reports its own live fabric calls).
// The workloads add what only they can see (cluster, queueing, sim). Every
// metric of kLayerMetrics is reported on every workload, 0 where the
// workload has no value.
#include <algorithm>
#include <map>
#include <stdexcept>

#include "harness.hpp"
#include "runtime/runtime.hpp"
#include "workloads.hpp"

namespace confnet::e2e {
namespace {

namespace rt = runtime;

struct LayerMetricSpec {
  const char* name;
  const char* unit;
};

// The per_layer list of BENCHMARK.json, in the same order. It opens with
// the round timings of the run's untraced rounds (main.cpp), which are
// reported here rather than gated as end-to-end metrics.
constexpr LayerMetricSpec kLayerMetrics[] = {
    {"ops_per_s", "1/s"},
    {"events_per_s", "1/s"},
    {"open_p50_us", "us"},
    {"open_p90_us", "us"},
    {"open_p99_us", "us"},
    {"close_p50_us", "us"},
    {"runtime.rtt_us", "us"},
    {"runtime.rtt_p99_us", "us"},
    {"runtime.fanout_us", "us"},
    {"runtime.submit_us", "us"},
    {"runtime.queue_service_us", "us"},
    {"runtime.queue_service_p99_us", "us"},
    {"runtime.mean_burst", "count"},
    {"runtime.max_queue_depth", "count"},
    {"runtime.submit_bounced", "count"},
    {"runtime.open_p99_us", "us"},
    {"runtime.open_p999_us", "us"},
    {"runtime.gen_late_p99_us", "us"},
    {"conference.open_us", "us"},
    {"conference.close_us", "us"},
    {"conference.place_us", "us"},
    {"conference.release_us", "us"},
    {"conference.blocked_placement", "%"},
    {"conference.blocked_capacity", "%"},
    {"switchmod.setup_us", "us"},
    {"switchmod.teardown_us", "us"},
    {"switchmod.add_member_us", "us"},
    {"switchmod.remove_member_us", "us"},
    {"switchmod.verify_us", "us"},
    {"switchmod.setup_calls", "count"},
    {"switchmod.teardown_calls", "count"},
    {"switchmod.add_member_calls", "count"},
    {"switchmod.remove_member_calls", "count"},
    {"switchmod.verify_calls", "count"},
    {"switchmod.share", "ratio"},
    {"switchmod.setup_fail_ratio", "ratio"},
    {"cluster.intra_open_us", "us"},
    {"cluster.span_open_us", "us"},
    {"cluster.trunk_refusal_us", "us"},
    {"cluster.trunkbook_us", "us"},
    {"cluster.rollback_ratio", "ratio"},
    {"cluster.legs_per_span", "count"},
    {"cluster.blocked_trunk", "%"},
    {"cluster.blocked_local", "%"},
    {"sim.events", "count"},
    {"sim.self_us_per_event", "us"},
    {"budget.intra_residual_us", "us"},
    {"trace.overhead_pct", "%"},
};

using Values = std::map<std::string, double>;

constexpr u32 kProbeShards = 4;
constexpr u32 kProbeWorkers = 2;
constexpr u32 kRttProbes = 20000;
constexpr u32 kFanoutProbes = 5000;
constexpr u32 kVerifyEvery = 1024;
constexpr u64 kProbeRequestBase = u64{1} << 40;  // apart from live ids
constexpr u32 kUnknownSession = UINT32_MAX;      // a close that is a no-op

double mean_per_call_us(u64 ns, u64 calls) {
  return calls == 0 ? 0.0
                    : static_cast<double>(ns) / 1000.0 /
                          static_cast<double>(calls);
}

double ratio(u64 part, u64 whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

rt::Command noop_close() {
  rt::Command cmd;
  cmd.kind = rt::CommandKind::kClose;
  cmd.session = kUnknownSession;
  return cmd;
}

void runtime_probe(const FabricGeometry& g, const Pinning& pinning,
                   double scale, SpanBuffer* spans, Values& v, u64& failed) {
  rt::RuntimeConfig cfg;
  cfg.shards = kProbeShards;
  cfg.workers = kProbeWorkers;
  cfg.shard.stages = g.stages;
  cfg.shard.dilation = g.dilation;
  cfg.shard.policy = g.policy;
  cfg.shard.wait_capacity = 0;
  cfg.shard.recovery.max_retries = 0;
  cfg.shard.seed = g.seed;
  rt::Runtime r(cfg);
  pinning.before_start();
  r.start();
  pinning.after_start();

  std::vector<u32> rtt;
  const u32 rtt_n = scaled(kRttProbes, scale);
  rtt.reserve(rtt_n);
  for (u32 i = 0; i < rtt_n; ++i) {
    const u64 t0 = now_ns();
    const rt::CommandResult res =
        r.call_pooled(i % kProbeShards, noop_close()).take();
    const u64 t1 = now_ns();
    rtt.push_back(elapsed_ns(t0, t1));
    if (spans != nullptr)
      spans->add("runtime.rtt", kProbeRequestBase + i, kNoSpan, t0, t1);
    if (res.status != rt::CommandStatus::kDone || res.ok) ++failed;
  }

  util::Rng rng(g.seed);
  rt::CommandStage stage;
  std::vector<rt::PooledResult> pending;
  std::vector<u32> fanout;
  const u32 fan_n = scaled(kFanoutProbes, scale);
  fanout.reserve(fan_n);
  for (u32 i = 0; i < fan_n; ++i) {
    const u32 touch = 2 + static_cast<u32>(rng.below(2));
    const std::vector<u32> shards = rng.sample_distinct(kProbeShards, touch);
    const u64 t0 = now_ns();
    for (const u32 s : shards)
      pending.push_back(r.stage_call(stage, s, noop_close()));
    (void)r.submit_stage(stage);
    for (auto& p : pending)
      if (p.take().status != rt::CommandStatus::kDone) ++failed;
    const u64 t1 = now_ns();
    pending.clear();
    fanout.push_back(elapsed_ns(t0, t1));
    if (spans != nullptr)
      spans->add("runtime.fanout", kProbeRequestBase + rtt_n + i, kNoSpan, t0,
                 t1);
  }
  r.stop();

  v["runtime.rtt_us"] = mean_us(rtt);
  v["runtime.rtt_p99_us"] = quantile_us(rtt, 0.99);
  v["runtime.fanout_us"] = mean_us(fanout);
}

void switchmod_metrics(const SwitchmodTimes& t, Values& v) {
  using C = SwitchmodTimes::Call;
  constexpr std::pair<C, const char*> kCalls[] = {
      {C::kSetup, "setup"},
      {C::kTeardown, "teardown"},
      {C::kAddMember, "add_member"},
      {C::kRemoveMember, "remove_member"},
      {C::kVerify, "verify"}};
  for (const auto& [call, name] : kCalls) {
    const SwitchmodTimes::CallStats& s = t.calls[call];
    v["switchmod." + std::string(name) + "_us"] =
        mean_per_call_us(s.ns, s.calls);
    v["switchmod." + std::string(name) + "_calls"] =
        static_cast<double>(s.calls);
  }
  v["switchmod.share"] = ratio(t.total_ns(), t.wall_ns);
  v["switchmod.setup_fail_ratio"] =
      ratio(t.setup_failed, t.calls[C::kSetup].calls);
}

/// The conference replay; returns the switchmod calls it made, with the
/// replay's wall time.
SwitchmodTimes conference_replay(const LayerInputs& in, SpanBuffer* spans,
                                 Values& v, u64& failed) {
  u64 open_ns = 0;
  u64 opens = 0;
  u64 close_ns = 0;
  u64 closes = 0;
  SwitchmodTimes total;
  for (std::size_t s = 0; s < in.streams.size(); ++s) {
    const ShardStream& stream = in.streams[s];
    auto timed = std::make_unique<TimedNetwork>(make_fabric(in.geometry));
    TimedNetwork& net = *timed;
    net.spans = spans;
    ShardModel shard(std::move(timed), in.geometry, static_cast<u32>(s));
    std::vector<std::optional<u32>> session(stream.size());
    const u64 begin = now_ns();
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const StreamOp& op = stream[i];
      ScopedSpan span(spans,
                      op.open ? "conference.request" : "conference.close",
                      op.request, kNoSpan);
      net.request = op.request;
      net.parent = span.index();
      if (op.open) {
        const u64 t0 = now_ns();
        const auto r = shard.wait.request(op.size, shard.rng);
        open_ns += now_ns() - t0;
        ++opens;
        const bool served = r.outcome == conf::RequestOutcome::kServed;
        if (served) session[i] = r.session;
        if (in.check_verdicts && served != op.expect_served) ++failed;
      } else if (session[op.opened]) {
        const u64 t0 = now_ns();
        (void)shard.wait.close(*session[op.opened], shard.rng);
        close_ns += now_ns() - t0;
        ++closes;
      }
      if ((i + 1) % kVerifyEvery == 0 && !net.verify_delivery()) ++failed;
    }
    net.parent = kNoSpan;
    if (!net.verify_delivery()) ++failed;
    SwitchmodTimes t = net.times();
    t.wall_ns = now_ns() - begin;
    total.add(t);
  }
  v["conference.open_us"] = mean_per_call_us(open_ns, opens);
  v["conference.close_us"] = mean_per_call_us(close_ns, closes);
  return total;
}

void placer_replay(const LayerInputs& in, SpanBuffer* spans, Values& v) {
  u64 place_ns = 0;
  u64 places = 0;
  u64 release_ns = 0;
  u64 releases = 0;
  for (std::size_t s = 0; s < in.streams.size(); ++s) {
    const ShardStream& stream = in.streams[s];
    const auto placer = conf::make_placer(
        in.geometry.stages, in.geometry.policy, conf::PlacerBackend::kFast);
    util::Rng rng(in.geometry.seed + s);
    std::vector<std::optional<std::vector<u32>>> ports(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const StreamOp& op = stream[i];
      const u64 t0 = now_ns();
      if (op.open) {
        ports[i] = placer->place(op.size, rng);
        place_ns += now_ns() - t0;
        ++places;
      } else if (ports[op.opened]) {
        placer->release(*ports[op.opened]);
        release_ns += now_ns() - t0;
        ++releases;
        ports[op.opened].reset();
      } else {
        continue;
      }
      if (spans != nullptr)
        spans->add(op.open ? "conference.place" : "conference.release",
                   op.request, kNoSpan, t0, now_ns());
    }
  }
  v["conference.place_us"] = mean_per_call_us(place_ns, places);
  v["conference.release_us"] = mean_per_call_us(release_ns, releases);
}

}  // namespace

LayerReport layer_report(const LayerInputs& in, const Pinning& pinning,
                         double scale, SpanBuffer* spans) {
  LayerReport out;
  Values v(in.values.begin(), in.values.end());
  runtime_probe(in.geometry, pinning, scale, spans, v, out.failed);
  const SwitchmodTimes replayed = conference_replay(in, spans, v, out.failed);
  switchmod_metrics(in.live_switchmod ? *in.live_switchmod : replayed, v);
  placer_replay(in, spans, v);
  const double attempts = static_cast<double>(std::max<u64>(in.attempts, 1));
  v["conference.blocked_placement"] =
      100.0 * static_cast<double>(in.blocked_placement) / attempts;
  v["conference.blocked_capacity"] =
      100.0 * static_cast<double>(in.blocked_capacity) / attempts;
  if (in.intra_open_us > 0.0) {
    // A closed-loop intra open minus the two layers on its blocking path
    // (the coordinator's round trip and the shard's admission): what is
    // left is coordination (bookkeeping, pooled results, wake-ups).
    v["budget.intra_residual_us"] = in.intra_open_us - v["runtime.rtt_us"] -
                                    v["conference.open_us"];
  }

  for (const LayerMetricSpec& spec : kLayerMetrics) {
    const auto it = v.find(spec.name);
    out.metrics.push_back(
        {spec.name, it == v.end() ? 0.0 : it->second, spec.unit});
    if (it != v.end()) v.erase(it);
  }
  if (!v.empty())
    throw std::logic_error("layer metric not in the table: " +
                           v.begin()->first);
  return out;
}

}  // namespace confnet::e2e
