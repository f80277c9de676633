// intra_churn and span_churn: a closed loop with one client driving the
// cluster coordinator. Each round builds a fresh 4-shard cluster, keeps
// about `target_live` conferences live (oldest out, new in) for a fixed
// number of decisions, and checks every verdict against a serial model of
// the cluster (per-shard WaitQueueManagers plus a TrunkBook, the same
// protocol run on one thread), then runs Cluster::cross_check().
#include <algorithm>
#include <deque>
#include <map>

#include "cluster/cluster.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace confnet::e2e {
namespace {

namespace cl = cluster;

constexpr u32 kShards = 4;
constexpr u32 kWorkers = 2;
constexpr u32 kChurnOps = 10000;  // decisions per round
// Live conferences kept open. 300 intra conferences of 2-4 members hold
// ~900 of the 1024 ports, so about 4% of opens block (mostly on link
// capacity under first-fit): blocking is never zero. A span holds more
// ports (each leg adds a relay termination), so span_churn keeps fewer.
constexpr u32 kIntraLive = 300;
constexpr u32 kSpanLive = 200;

struct ChurnSpec {
  bool spans = false;    // every 2nd open spans 2-3 shards
  u32 target_live = 0;   // conferences kept live
  u32 round_ops = 0;     // decisions per round
};

cl::ClusterConfig cluster_config() {
  cl::ClusterConfig cfg;
  cfg.shards = kShards;
  cfg.workers = kWorkers;
  cfg.stages = 8;  // 4 x 256 ports
  cfg.dilation = 4;
  cfg.policy = conf::PlacementPolicy::kFirstFit;
  cfg.backend = conf::PlacerBackend::kFast;
  cfg.queue_depth = 256;
  // 24 sharers per shard pair: about 2 in 5 span claims are refused on a
  // trunk, and most of the rest run the full claim/open/settle path.
  cfg.trunk_lanes = 12;
  cfg.conferences_per_lane = 2;
  cfg.seed = 1;
  return cfg;
}

FabricGeometry geometry_of(const cl::ClusterConfig& cfg) {
  return FabricGeometry{cfg.stages, cfg.dilation, cfg.policy, cfg.seed};
}

/// One TrunkBook call of a recorded span admission sequence.
struct TrunkOp {
  bool reserve = true;  // reserve_mesh, else release_mesh
  std::vector<u32> shards;
};

/// Mean microseconds per TrunkBook call, replaying `ops` on a fresh book.
double trunkbook_replay_us(const std::vector<TrunkOp>& ops,
                           const cl::ClusterConfig& cfg) {
  if (ops.empty()) return 0.0;
  cl::TrunkBook book(cfg.shards, cfg.trunk_lanes, cfg.conferences_per_lane);
  const u64 t0 = now_ns();
  for (const TrunkOp& op : ops) {
    if (op.reserve)
      (void)book.reserve_mesh(op.shards);
    else
      book.release_mesh(op.shards);
  }
  return static_cast<double>(now_ns() - t0) / 1000.0 /
         static_cast<double>(ops.size());
}

/// Serial model of the cluster admission protocol: the verdict oracle.
/// Shard i is a loss-mode WaitQueueManager seeded like the live shard, so
/// it assigns the same session ids; the TrunkBook is claimed before any
/// leg, and a refused leg rolls the granted ones back.
class ClusterModel {
 public:
  ClusterModel(const cl::ClusterConfig& cfg, bool record)
      : trunks_(cfg.shards, cfg.trunk_lanes, cfg.conferences_per_lane),
        record_(record),
        open_index_(cfg.shards),
        streams_(cfg.shards) {
    const FabricGeometry g = geometry_of(cfg);
    for (u32 s = 0; s < cfg.shards; ++s)
      shards_.push_back(std::make_unique<ShardModel>(make_fabric(g), g, s));
  }

  cl::OpenReport open(const std::vector<cl::LegSpec>& legs, u64 request) {
    if (legs.size() == 1) {
      const auto session = shard_open(legs[0].shard, legs[0].members, request);
      if (!session) return {cl::Admit::kBlockedLocal, 0, legs[0].shard};
      return accept({{legs[0].shard, *session, legs[0].members}});
    }
    std::vector<u32> touched;
    for (const auto& leg : legs) touched.push_back(leg.shard);
    const bool claimed = trunks_.reserve_mesh(touched);
    if (record_) trunk_ops_.push_back({true, touched});
    if (!claimed) return {cl::Admit::kBlockedTrunk, 0, 0};
    std::vector<cl::Cluster::Leg> granted;
    std::optional<u32> refused;
    for (const auto& leg : legs) {
      const auto session = shard_open(leg.shard, leg.members + 1, request);
      if (session)
        granted.push_back({leg.shard, *session, leg.members});
      else if (!refused)
        refused = leg.shard;
    }
    if (refused) {
      for (const auto& leg : granted)
        shard_close(leg.shard, leg.session, request);
      release(touched);
      return {cl::Admit::kBlockedLocal, 0, *refused};
    }
    return accept(std::move(granted));
  }

  void close(u64 id, u64 request) {
    const auto it = live_.find(id);
    std::vector<u32> touched;
    for (const auto& leg : it->second) {
      shard_close(leg.shard, leg.session, request);
      touched.push_back(leg.shard);
    }
    if (touched.size() > 1) release(touched);
    live_.erase(it);
  }

  [[nodiscard]] const std::map<u64, std::vector<cl::Cluster::Leg>>& live()
      const {
    return live_;
  }
  [[nodiscard]] conf::SessionStats session_stats() const {
    conf::SessionStats total;
    for (const auto& sh : shards_) {
      const conf::SessionStats& s = sh->wait.sessions().stats();
      total.attempts += s.attempts;
      total.blocked_placement += s.blocked_placement;
      total.blocked_capacity += s.blocked_capacity;
    }
    return total;
  }
  std::vector<ShardStream>& streams() { return streams_; }
  const std::vector<TrunkOp>& trunk_ops() const { return trunk_ops_; }

 private:
  std::optional<u32> shard_open(u32 s, u32 size, u64 request) {
    ShardModel& sh = *shards_[s];
    const auto r = sh.wait.request(size, sh.rng);
    const bool served = r.outcome == conf::RequestOutcome::kServed;
    if (record_) {
      if (served)
        open_index_[s][*r.session] = static_cast<u32>(streams_[s].size());
      streams_[s].push_back({true, size, 0, served, request});
    }
    return served ? r.session : std::nullopt;
  }

  void shard_close(u32 s, u32 session, u64 request) {
    ShardModel& sh = *shards_[s];
    (void)sh.wait.close(session, sh.rng);
    if (record_) {
      streams_[s].push_back({false, 0, open_index_[s][session], true, request});
      open_index_[s].erase(session);
    }
  }

  void release(const std::vector<u32>& touched) {
    trunks_.release_mesh(touched);
    if (record_) trunk_ops_.push_back({false, touched});
  }

  cl::OpenReport accept(std::vector<cl::Cluster::Leg> legs) {
    const u64 id = next_id_++;
    live_.emplace(id, std::move(legs));
    return {cl::Admit::kAccepted, id, 0};
  }

  std::vector<std::unique_ptr<ShardModel>> shards_;
  cl::TrunkBook trunks_;
  bool record_;
  std::map<u64, std::vector<cl::Cluster::Leg>> live_;
  u64 next_id_ = 0;
  // Recording (traced rounds): per-shard streams, and for each live
  // session the stream index of its open.
  std::vector<std::map<u32, u32>> open_index_;
  std::vector<ShardStream> streams_;
  std::vector<TrunkOp> trunk_ops_;
};

/// One scripted decision: an open of `legs` (with its expected verdict)
/// or, when `legs` is empty, the close of cluster conference `close_id`.
struct ChurnOp {
  std::vector<cl::LegSpec> legs;
  u64 close_id = 0;
  cl::OpenReport expect;
};

class ClusterChurn final : public Workload {
 public:
  ClusterChurn(ChurnSpec spec, const Pinning& pinning)
      : spec_(spec), cfg_(cluster_config()), pinning_(pinning) {}

  double setup_sample() override {
    const u64 t0 = now_ns();
    auto c = start_cluster();
    const u64 t1 = now_ns();
    c->stop();
    return static_cast<double>(t1 - t0) / 1e9;
  }

  void run_round(u64 seed, SpanBuffer* spans, Round& out) override {
    const bool traced = spans != nullptr;
    ClusterModel model(cfg_, traced);
    const std::vector<ChurnOp> script = make_script(seed, model);

    std::vector<u32> intra_ns;
    std::vector<u32> span_ns;
    std::vector<u32> refusal_ns;
    out.open_ns.reserve(script.size());
    out.close_ns.reserve(script.size());
    auto c = start_cluster();
    const u64 begin = now_ns();
    for (std::size_t i = 0; i < script.size(); ++i) {
      const ChurnOp& op = script[i];
      ScopedSpan span(spans, op.legs.empty() ? "cluster.close" : "cluster.open",
                      i, kNoSpan);
      const u64 t0 = now_ns();
      if (op.legs.empty()) {
        const bool closed = c->close(op.close_id);
        const u32 dt = elapsed_ns(t0, now_ns());
        out.close_ns.push_back(dt);
        if (!closed) ++out.failed;
        continue;
      }
      const cl::OpenReport r = c->open(op.legs);
      const u32 dt = elapsed_ns(t0, now_ns());
      out.open_ns.push_back(dt);
      ++out.opens;
      if (r.result != cl::Admit::kAccepted) ++out.blocked;
      if (r.result != op.expect.result || r.id != op.expect.id ||
          (r.result == cl::Admit::kBlockedLocal &&
           r.blocked_shard != op.expect.blocked_shard))
        ++out.failed;
      if (traced) {
        (op.legs.size() == 1 ? intra_ns : span_ns).push_back(dt);
        if (r.result == cl::Admit::kBlockedTrunk) refusal_ns.push_back(dt);
      }
    }
    c->drain();
    out.window_s = static_cast<double>(now_ns() - begin) / 1e9;
    out.ops = script.size();
    const runtime::RuntimeSnapshot snap = c->runtime_snapshot();
    out.events = snap.total.completed;
    out.failed += verify(*c, model);

    if (traced) {
      const cl::ClusterStats& st = c->stats();
      const conf::SessionStats ss = model.session_stats();
      last_ = LayerInputs{};
      last_.geometry = geometry_of(cfg_);
      last_.streams = std::move(model.streams());
      last_.attempts = ss.attempts;
      last_.blocked_placement = ss.blocked_placement;
      last_.blocked_capacity = ss.blocked_capacity;
      last_.intra_open_us = mean_us(intra_ns);
      const double opens = static_cast<double>(st.intra_opens + st.span_opens);
      last_.values = {
          {"cluster.intra_open_us", mean_us(intra_ns)},
          {"cluster.span_open_us", mean_us(span_ns)},
          {"cluster.trunk_refusal_us", mean_us(refusal_ns)},
          {"cluster.trunkbook_us",
           trunkbook_replay_us(model.trunk_ops(), cfg_)},
          {"cluster.rollback_ratio",
           st.legs_reserved == 0
               ? 0.0
               : static_cast<double>(st.legs_rolled_back) /
                     static_cast<double>(st.legs_reserved)},
          {"cluster.legs_per_span", legs_per_span(script)},
          {"cluster.blocked_trunk",
           100.0 * static_cast<double>(st.span_blocked_trunk) / opens},
          {"cluster.blocked_local",
           100.0 *
               static_cast<double>(st.intra_blocked + st.span_blocked_local) /
               opens},
          {"runtime.mean_burst",
           snap.total.bursts == 0
               ? 0.0
               : static_cast<double>(snap.total.completed) /
                     static_cast<double>(snap.total.bursts)},
          {"runtime.max_queue_depth",
           static_cast<double>(snap.total.max_queue_depth)},
          {"runtime.submit_bounced",
           static_cast<double>(snap.total.submit_bounced)},
      };
    }
  }

  LayerInputs layer_inputs() override { return std::move(last_); }

 private:
  std::unique_ptr<cl::Cluster> start_cluster() {
    auto c = std::make_unique<cl::Cluster>(cfg_);
    pinning_.before_start();
    c->start();
    pinning_.after_start();
    return c;
  }

  std::vector<ChurnOp> make_script(u64 seed, ClusterModel& model) const {
    util::Rng rng(seed);
    std::vector<ChurnOp> script;
    script.reserve(spec_.round_ops);
    std::deque<u64> live;
    u64 opens = 0;
    bool refused = false;
    for (u32 i = 0; i < spec_.round_ops; ++i) {
      ChurnOp op;
      // A refused open is followed by a close, so a full cluster always
      // frees room again instead of refusing every later open.
      if (!live.empty() && (live.size() >= spec_.target_live || refused)) {
        refused = false;
        op.close_id = live.front();
        live.pop_front();
        model.close(op.close_id, i);
        script.push_back(std::move(op));
        continue;
      }
      if (spec_.spans && opens % 2 == 1) {
        const u32 touch = 2 + static_cast<u32>(rng.below(2));
        for (const u32 s : rng.sample_distinct(kShards, touch))
          op.legs.push_back({s, 1 + static_cast<u32>(rng.below(2))});
        std::sort(op.legs.begin(), op.legs.end(),
                  [](const cl::LegSpec& a, const cl::LegSpec& b) {
                    return a.shard < b.shard;
                  });
      } else {
        op.legs.push_back({static_cast<u32>(rng.below(kShards)),
                           2 + static_cast<u32>(rng.below(3))});
      }
      ++opens;
      op.expect = model.open(op.legs, i);
      refused = op.expect.result != cl::Admit::kAccepted;
      if (!refused) live.push_back(op.expect.id);
      script.push_back(std::move(op));
    }
    return script;
  }

  /// Post-round checks: the flattened-oracle cross check, and every live
  /// conference's legs equal the model's. Returns the number of failures.
  static u64 verify(const cl::Cluster& c, const ClusterModel& model) {
    u64 failed = 0;
    try {
      c.cross_check();
    } catch (const std::exception&) {
      ++failed;
    }
    if (c.conferences().size() != model.live().size()) return failed + 1;
    for (const auto& [id, conf] : c.conferences()) {
      const auto it = model.live().find(id);
      if (it == model.live().end() || it->second.size() != conf.legs.size()) {
        ++failed;
        continue;
      }
      for (std::size_t l = 0; l < conf.legs.size(); ++l)
        if (conf.legs[l].shard != it->second[l].shard ||
            conf.legs[l].session != it->second[l].session)
          ++failed;
    }
    return failed;
  }

  static double legs_per_span(const std::vector<ChurnOp>& script) {
    u64 spans = 0;
    u64 legs = 0;
    for (const ChurnOp& op : script)
      if (op.legs.size() > 1) {
        ++spans;
        legs += op.legs.size();
      }
    return spans == 0 ? 0.0
                      : static_cast<double>(legs) / static_cast<double>(spans);
  }

  ChurnSpec spec_;
  cl::ClusterConfig cfg_;
  const Pinning& pinning_;
  LayerInputs last_;
};

}  // namespace

std::unique_ptr<Workload> make_intra_churn(const Pinning& p, double scale) {
  return std::make_unique<ClusterChurn>(
      ChurnSpec{false, kIntraLive, scaled(kChurnOps, scale)}, p);
}

std::unique_ptr<Workload> make_span_churn(const Pinning& p, double scale) {
  return std::make_unique<ClusterChurn>(
      ChurnSpec{true, kSpanLive, scaled(kChurnOps, scale)}, p);
}

}  // namespace confnet::e2e
