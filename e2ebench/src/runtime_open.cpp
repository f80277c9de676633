// runtime_open: an open loop on a bare Runtime. One generator thread
// sends Poisson opens at a fixed rate, each followed by a close after an
// exponential holding time, in strict scheduled-time order, so every
// shard sees a deterministic command sequence. A serial loss-mode
// WaitQueueManager per shard precomputes each verdict and session id;
// completions are stamped by the commands' `done` callbacks and checked
// against it. Latency counts from the scheduled send time, so a stalled
// generator or a backed-up queue shows in every later request.
#include <algorithm>

#include "harness.hpp"
#include "runtime/runtime.hpp"
#include "workloads.hpp"

namespace confnet::e2e {
namespace {

namespace rt = runtime;

constexpr u32 kShards = 4;
constexpr u32 kWorkers = 2;
constexpr double kRate = 50000.0;      // opens per second
constexpr double kHoldS = 0.004;       // mean holding time: 200 Erlangs
constexpr double kWindowS = 0.1;       // scheduled length of one round
constexpr u32 kMinSize = 2;
constexpr u32 kMaxSize = 4;  // ~6% blocking, mostly on link capacity
constexpr u64 kLeadNs = 200'000;       // first send after the round starts

rt::RuntimeConfig runtime_config() {
  rt::RuntimeConfig cfg;
  cfg.shards = kShards;
  cfg.workers = kWorkers;
  cfg.shard.stages = 8;
  cfg.shard.dilation = 4;
  cfg.shard.policy = conf::PlacementPolicy::kFirstFit;
  cfg.shard.backend = conf::PlacerBackend::kFast;
  cfg.shard.queue_depth = 256;
  cfg.shard.wait_capacity = 0;  // the cluster's loss mode
  cfg.shard.wait_bypass = false;
  cfg.shard.recovery.max_retries = 0;
  cfg.shard.seed = 1;
  return cfg;
}

/// One scheduled command with its precomputed verdict.
struct TimedCmd {
  u64 at_ns = 0;
  u32 shard = 0;
  bool open = true;
  u32 size = 0;     // open
  u32 session = 0;  // close: target; open: expected session when served
  bool expect_served = false;
};

/// What the worker reports for one command (written by its callback).
struct Completion {
  u64 submit_begin = 0;
  u64 submit_end = 0;
  u64 done = 0;
  bool applied = false;
  bool served = false;  // open: admitted; close: session existed
  u32 session = 0;
};

/// A scheduled open with its shard, size and holding time.
struct Arrival {
  double at = 0.0;
  u32 shard = 0;
  u32 size = 0;
  double hold = 0.0;
};

/// An open or the departure of arrival `arrival`, at time `at`.
struct Event {
  double at = 0.0;
  u32 arrival = 0;
  bool open = true;
};

class RuntimeOpen final : public Workload {
 public:
  RuntimeOpen(const Pinning& pinning, double scale)
      : cfg_(runtime_config()),
        pinning_(pinning),
        window_s_(kWindowS * scale) {}

  double setup_sample() override {
    const u64 t0 = now_ns();
    auto r = start_runtime();
    const u64 t1 = now_ns();
    r->stop();
    return static_cast<double>(t1 - t0) / 1e9;
  }

  void run_round(u64 seed, SpanBuffer* spans, Round& out) override {
    const bool traced = spans != nullptr;
    std::vector<ShardStream> streams(kShards);
    std::vector<u32> active(kShards, 0);
    conf::SessionStats oracle_stats;
    make_schedule(seed, traced ? &streams : nullptr, active, oracle_stats);
    const std::vector<TimedCmd>& cmds = cmds_;
    std::vector<Completion>& comp = comp_;
    comp.assign(cmds.size(), Completion{});
    auto r = start_runtime();
    const u64 t0 = now_ns() + kLeadNs;
    for (std::size_t i = 0; i < cmds.size(); ++i) {
      const TimedCmd& tc = cmds[i];
      const u64 due = t0 + tc.at_ns;
      while (now_ns() < due) {
      }
      Completion* slot = &comp[i];
      rt::Command cmd;
      cmd.kind = tc.open ? rt::CommandKind::kOpen : rt::CommandKind::kClose;
      cmd.size = tc.size;
      cmd.session = tc.session;
      const bool open = tc.open;
      cmd.done = [slot, open](rt::CommandResult&& res) {
        slot->done = now_ns();
        slot->applied = res.status == rt::CommandStatus::kDone;
        if (open) {
          slot->served = res.open.outcome == conf::RequestOutcome::kServed;
          slot->session = res.open.session.value_or(0);
        } else {
          slot->served = res.ok;
        }
      };
      slot->submit_begin = now_ns();
      (void)r->submit_to_blocking(tc.shard, std::move(cmd));
      slot->submit_end = now_ns();
    }
    r->drain();
    const rt::RuntimeSnapshot snap = r->snapshot();
    r->stop();

    u64 last_done = t0;
    out.open_ns.reserve(cmds.size());
    out.close_ns.reserve(cmds.size());
    for (std::size_t i = 0; i < cmds.size(); ++i) {
      const TimedCmd& tc = cmds[i];
      const Completion& c = comp[i];
      last_done = std::max(last_done, c.done);
      const u32 latency = elapsed_ns(t0 + tc.at_ns, c.done);
      if (tc.open) {
        out.open_ns.push_back(latency);
        ++out.opens;
        if (!c.served) ++out.blocked;
      } else {
        out.close_ns.push_back(latency);
      }
      const bool ok =
          c.applied && c.served == (tc.open ? tc.expect_served : true) &&
          (!tc.open || !c.served || c.session == tc.session);
      if (!ok) ++out.failed;
    }
    // After stop: each shard's fabric still delivers exactly its live
    // conferences, and holds as many as the serial model.
    for (u32 s = 0; s < kShards; ++s) {
      const auto& mgr = r->shard(s).wait().sessions();
      if (!mgr.network().verify_delivery() ||
          mgr.active_sessions() != active[s])
        ++out.failed;
    }
    out.ops = cmds.size();
    out.events = snap.total.completed;
    out.window_s = static_cast<double>(last_done - t0) / 1e9;

    if (traced)
      record_trace(cmds, comp, t0, snap, *spans, streams, oracle_stats);
  }

  LayerInputs layer_inputs() override { return std::move(last_); }

 private:
  std::unique_ptr<rt::Runtime> start_runtime() {
    auto r = std::make_unique<rt::Runtime>(cfg_);
    pinning_.before_start();
    r->start();
    pinning_.after_start();
    return r;
  }

  /// Poisson arrivals over the window, departures that fall inside it,
  /// merged in time order and run through the serial per-shard model.
  void make_schedule(u64 seed, std::vector<ShardStream>* streams,
                     std::vector<u32>& active, conf::SessionStats& stats) {
    util::Rng rng(seed);
    std::vector<Arrival>& arrivals = arrivals_;
    arrivals.clear();
    for (double t = rng.exponential(kRate); t < window_s_;
         t += rng.exponential(kRate))
      arrivals.push_back({t, static_cast<u32>(rng.below(kShards)),
                          static_cast<u32>(rng.between(kMinSize, kMaxSize)),
                          rng.exponential(1.0 / kHoldS)});
    std::vector<Event>& events = events_;
    events.clear();
    for (u32 a = 0; a < arrivals.size(); ++a) {
      events.push_back({arrivals[a].at, a, true});
      const double leave = arrivals[a].at + arrivals[a].hold;
      if (leave < window_s_) events.push_back({leave, a, false});
    }
    std::sort(events.begin(), events.end(), [](const Event& x, const Event& y) {
      return x.at != y.at ? x.at < y.at : x.arrival < y.arrival;
    });

    const FabricGeometry g{cfg_.shard.stages, cfg_.shard.dilation,
                           cfg_.shard.policy, cfg_.shard.seed};
    std::vector<std::unique_ptr<ShardModel>> model;
    for (u32 s = 0; s < kShards; ++s)
      model.push_back(std::make_unique<ShardModel>(make_fabric(g), g, s));
    std::vector<std::optional<u32>> session_of(arrivals.size());
    std::vector<u32> stream_index(arrivals.size(), 0);
    std::vector<TimedCmd>& cmds = cmds_;
    cmds.clear();
    for (const Event& e : events) {
      const Arrival& a = arrivals[e.arrival];
      TimedCmd tc;
      tc.at_ns = static_cast<u64>(e.at * 1e9);
      tc.shard = a.shard;
      tc.open = e.open;
      const u64 request = cmds.size();
      if (e.open) {
        ShardModel& m = *model[a.shard];
        const auto res = m.wait.request(a.size, m.rng);
        tc.size = a.size;
        tc.expect_served = res.outcome == conf::RequestOutcome::kServed;
        tc.session = res.session.value_or(0);
        if (tc.expect_served) session_of[e.arrival] = tc.session;
        if (streams != nullptr) {
          stream_index[e.arrival] =
              static_cast<u32>((*streams)[a.shard].size());
          (*streams)[a.shard].push_back(
              {true, a.size, 0, tc.expect_served, request});
        }
      } else {
        if (!session_of[e.arrival]) continue;  // blocked: nothing to close
        tc.session = *session_of[e.arrival];
        ShardModel& m = *model[a.shard];
        (void)m.wait.close(tc.session, m.rng);
        if (streams != nullptr)
          (*streams)[a.shard].push_back(
              {false, 0, stream_index[e.arrival], true, request});
      }
      cmds.push_back(tc);
    }
    for (u32 s = 0; s < kShards; ++s) {
      active[s] = model[s]->wait.sessions().active_sessions();
      const conf::SessionStats& st = model[s]->wait.sessions().stats();
      stats.attempts += st.attempts;
      stats.blocked_placement += st.blocked_placement;
      stats.blocked_capacity += st.blocked_capacity;
    }
  }

  void record_trace(const std::vector<TimedCmd>& cmds,
                    const std::vector<Completion>& comp, u64 t0,
                    const rt::RuntimeSnapshot& snap, SpanBuffer& spans,
                    std::vector<ShardStream>& streams,
                    const conf::SessionStats& stats) {
    std::vector<u32> open_ns;
    std::vector<u32> submit_ns;
    std::vector<u32> service_ns;
    std::vector<u32> late_ns;
    for (std::size_t i = 0; i < cmds.size(); ++i) {
      const Completion& c = comp[i];
      const u64 due = t0 + cmds[i].at_ns;
      const u32 root =
          spans.add(cmds[i].open ? "runtime.open" : "runtime.close", i,
                    kNoSpan, due, c.done);
      spans.add("runtime.submit", i, root, c.submit_begin, c.submit_end);
      spans.add("runtime.queue_service", i, root, c.submit_end, c.done);
      if (cmds[i].open) open_ns.push_back(elapsed_ns(due, c.done));
      submit_ns.push_back(elapsed_ns(c.submit_begin, c.submit_end));
      service_ns.push_back(elapsed_ns(c.submit_end, c.done));
      late_ns.push_back(elapsed_ns(due, c.submit_begin));
    }
    last_ = LayerInputs{};
    last_.geometry = FabricGeometry{cfg_.shard.stages, cfg_.shard.dilation,
                                    cfg_.shard.policy, cfg_.shard.seed};
    last_.streams = std::move(streams);
    last_.attempts = stats.attempts;
    last_.blocked_placement = stats.blocked_placement;
    last_.blocked_capacity = stats.blocked_capacity;
    last_.values = {
        {"runtime.submit_us", mean_us(submit_ns)},
        {"runtime.queue_service_us", quantile_us(service_ns, 0.5)},
        {"runtime.queue_service_p99_us", quantile_us(service_ns, 0.99)},
        {"runtime.mean_burst",
         snap.total.bursts == 0
             ? 0.0
             : static_cast<double>(snap.total.completed) /
                   static_cast<double>(snap.total.bursts)},
        {"runtime.max_queue_depth",
         static_cast<double>(snap.total.max_queue_depth)},
        {"runtime.submit_bounced",
         static_cast<double>(snap.total.submit_bounced)},
        {"runtime.open_p99_us", quantile_us(open_ns, 0.99)},
        {"runtime.open_p999_us", quantile_us(open_ns, 0.999)},
        {"runtime.gen_late_p99_us", quantile_us(late_ns, 0.99)},
    };
  }

  rt::RuntimeConfig cfg_;
  const Pinning& pinning_;
  double window_s_;
  LayerInputs last_;
  // Round buffers, reused so their capacity (and the peak RSS) settles
  // at the largest round instead of following each round's size.
  std::vector<Arrival> arrivals_;
  std::vector<Event> events_;
  std::vector<TimedCmd> cmds_;
  std::vector<Completion> comp_;
};

}  // namespace

std::unique_ptr<Workload> make_runtime_open(const Pinning& p, double scale) {
  return std::make_unique<RuntimeOpen>(p, scale);
}

}  // namespace confnet::e2e
