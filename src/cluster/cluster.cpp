#include "cluster/cluster.hpp"

#include <algorithm>
#include <cstdint>
#include <ranges>
#include <utility>

#include "conference/subnetwork.hpp"
#include "min/network.hpp"
#include "min/windows.hpp"
#include "switchmod/fabric.hpp"
#include "switchmod/fabric_state.hpp"
#include "util/bitset.hpp"
#include "util/trace.hpp"

namespace confnet::cluster {

namespace {

[[nodiscard]] bool power_of_two(u32 v) noexcept {
  return v != 0 && (v & (v - 1)) == 0;
}

[[nodiscard]] runtime::RuntimeConfig serving_config(const ClusterConfig& c) {
  runtime::RuntimeConfig rc;
  rc.shards = c.shards;
  rc.workers = c.workers;
  rc.shard.stages = c.stages;
  rc.shard.kind = c.kind;
  rc.shard.dilation = c.dilation;
  rc.shard.policy = c.policy;
  rc.shard.backend = c.backend;
  rc.shard.queue_depth = c.queue_depth;
  // Loss-mode admission: a leg reservation must be a synchronous yes/no
  // (a parked hold-queue ticket is not a leg the span settle could
  // commit), and a link-fault victim must reach a terminal state inside
  // the fail command (repacked in place or dropped) so the cluster can
  // fold the impact into its own bookkeeping immediately.
  rc.shard.wait_capacity = 0;
  rc.shard.wait_bypass = false;
  rc.shard.recovery.max_retries = 0;
  rc.shard.seed = c.seed;
  return rc;
}

}  // namespace

Cluster::Cluster(const ClusterConfig& config)
    : config_(config),
      map_(config.shards, u32{1} << config.stages),
      runtime_(serving_config(config)),
      trunks_(config.shards, config.trunk_lanes,
              config.conferences_per_lane) {
  expects(power_of_two(config.shards),
          "cluster shard count must be a power of two (the flattened "
          "oracle needs a legal 2^(stages + log2 K) network)");
}

Cluster::~Cluster() {
  if (runtime_.started() && !runtime_.stopped()) runtime_.stop();
}

void Cluster::start() { runtime_.start(); }

void Cluster::stop() { runtime_.stop(); }

void Cluster::drain() { runtime_.drain(); }

OpenReport Cluster::open(const std::vector<LegSpec>& legs) {
  expects(!legs.empty(), "open needs at least one leg");
  return legs.size() == 1 ? open_intra(legs.front()) : open_span(legs);
}

OpenReport Cluster::open_intra(const LegSpec& leg) {
  expects(leg.shard < config_.shards, "leg shard out of range");
  expects(leg.members >= 2, "an intra-shard conference needs >= 2 members");
  ++stats_.intra_opens;
  runtime::Command cmd;
  cmd.kind = runtime::CommandKind::kOpen;
  cmd.size = leg.members;
  const auto r = runtime_.call_pooled(leg.shard, std::move(cmd)).take();

  OpenReport report;
  if (r.status == runtime::CommandStatus::kDone &&
      r.open.outcome == conf::RequestOutcome::kServed) {
    const u64 id = next_id_++;
    live_.emplace_back(
        id, Conference{{Leg{leg.shard, *r.open.session, leg.members}}, false});
    ++stats_.intra_accepted;
    report = OpenReport{Admit::kAccepted, id, 0};
  } else {
    ++stats_.intra_blocked;
    report = OpenReport{Admit::kBlockedLocal, 0, leg.shard};
  }
  obs::trace_emit("cluster", "intra_open",
                  report.result == Admit::kAccepted ? 1.0 : 0.0);
  CONFNET_AUDIT_HOOK(audit::check_cluster(*this));
  return report;
}

std::vector<LegSpec> Cluster::validated_span(
    const std::vector<LegSpec>& legs) const {
  std::vector<LegSpec> sorted(legs);
  std::sort(sorted.begin(), sorted.end(),
            [](const LegSpec& a, const LegSpec& b) { return a.shard < b.shard; });
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    expects(sorted[i].shard < config_.shards, "leg shard out of range");
    expects(sorted[i].members >= 1, "a spanning leg needs >= 1 member");
    expects(i == 0 || sorted[i - 1].shard != sorted[i].shard,
            "spanning legs must touch distinct shards");
  }
  return sorted;
}

OpenReport Cluster::open_span(const std::vector<LegSpec>& legs) {
  const std::vector<LegSpec> sorted = validated_span(legs);
  ++stats_.span_opens;

  std::vector<u32> shards;
  shards.reserve(sorted.size());
  for (const LegSpec& leg : sorted) shards.push_back(leg.shard);

  // Optimistic claim — the trunk tree is provisionally acquired before any
  // shard sees a command. An exhausted or faulty pair refuses the open
  // with zero coordination rounds (and zero rollback work: no leg ever
  // opened). The claim counts as a lane acquire even when a later leg
  // refusal rolls it back — lane_acquires is a churn counter, not a
  // live-lane gauge (reserved_total is).
  if (!trunks_.reserve_mesh(shards)) {
    ++stats_.span_blocked_trunk;
    obs::trace_emit("cluster", "span_blocked_trunk",
                    static_cast<double>(shards.size()));
    CONFNET_AUDIT_HOOK(audit::check_cluster(*this));
    return OpenReport{Admit::kBlockedTrunk, 0, 0};
  }

  // Single round — every local leg (members + the trunk relay termination
  // port) fans out in one staged burst: one queue push per shard, one
  // wakeup per owning worker, pooled completions. The per-shard command
  // order stays deterministic because this coordinator is the sole span
  // producer.
  pending_.clear();
  for (const LegSpec& leg : sorted) {
    runtime::Command cmd;
    cmd.kind = runtime::CommandKind::kOpen;
    cmd.size = leg.members + 1;  // + trunk relay termination
    pending_.push_back(runtime_.stage_call(stage_, leg.shard, std::move(cmd)));
  }
  (void)runtime_.submit_stage(stage_);
  std::vector<Leg> granted;
  granted.reserve(sorted.size());
  bool all_granted = true;
  u32 blocked_shard = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const auto r = pending_[i].take();
    if (r.status == runtime::CommandStatus::kDone &&
        r.open.outcome == conf::RequestOutcome::kServed) {
      granted.push_back(Leg{sorted[i].shard, *r.open.session,
                            sorted[i].members});
      ++stats_.legs_reserved;
    } else if (all_granted) {
      all_granted = false;
      blocked_shard = sorted[i].shard;
    }
  }
  pending_.clear();
  if (!all_granted) {
    // Settle — a shard refused its leg: close every granted leg and hand
    // the provisional tree back. The cluster is back to its pre-attempt
    // state (audited below) — zero residue.
    close_legs(granted, config_.shards);
    stats_.legs_rolled_back += granted.size();
    trunks_.release_mesh(shards);
    ++stats_.span_blocked_local;
    obs::trace_emit("cluster", "span_blocked_local",
                    static_cast<double>(blocked_shard));
    CONFNET_AUDIT_HOOK(audit::check_cluster(*this));
    return OpenReport{Admit::kBlockedLocal, 0, blocked_shard};
  }

  const u64 id = next_id_++;
  live_.emplace_back(id, Conference{std::move(granted), true});
  ++stats_.span_accepted;
  obs::trace_emit("cluster", "span_open", static_cast<double>(shards.size()));
  CONFNET_AUDIT_HOOK(audit::check_cluster(*this));
  return OpenReport{Admit::kAccepted, id, 0};
}

void Cluster::close_legs(const std::vector<Leg>& legs, u32 skip_shard) {
  pending_.clear();
  for (const Leg& leg : legs) {
    if (leg.shard == skip_shard) continue;
    runtime::Command cmd;
    cmd.kind = runtime::CommandKind::kClose;
    cmd.session = leg.session;
    pending_.push_back(runtime_.stage_call(stage_, leg.shard, std::move(cmd)));
  }
  (void)runtime_.submit_stage(stage_);
  for (auto& p : pending_) (void)p.take();
  pending_.clear();
}

std::optional<Cluster::Conference> Cluster::take_live(u64 id) {
  const auto it = std::lower_bound(
      live_.begin(), live_.end(), id,
      [](const auto& entry, u64 key) { return entry.first < key; });
  if (it == live_.end() || it->first != id) return std::nullopt;
  Conference c = std::move(it->second);
  live_.erase(it);
  return c;
}

bool Cluster::close(u64 id) {
  const std::optional<Conference> taken = take_live(id);
  if (!taken) return false;
  const Conference& c = *taken;
  close_legs(c.legs, config_.shards);
  if (c.spanning) {
    trunks_.release_mesh(touched_shards(c));
    ++stats_.span_closes;
  } else {
    ++stats_.intra_closes;
  }
  obs::trace_emit("cluster", "close", static_cast<double>(c.legs.size()));
  CONFNET_AUDIT_HOOK(audit::check_cluster(*this));
  return true;
}

std::vector<u32> Cluster::touched_shards(const Conference& c) const {
  std::vector<u32> shards;
  shards.reserve(c.legs.size());
  for (const Leg& leg : c.legs) shards.push_back(leg.shard);
  return shards;
}

void Cluster::tear_down(u64 id, u32 dead_shard) {
  const std::optional<Conference> taken = take_live(id);
  expects(taken.has_value(), "tear_down of a conference that is not live");
  const Conference& c = *taken;
  close_legs(c.legs, dead_shard);
  if (c.spanning) trunks_.release_mesh(touched_shards(c));
  if (c.spanning)
    ++stats_.span_interrupted;
  else
    ++stats_.intra_interrupted;
}

std::vector<u64> Cluster::fail_trunk(u32 a, u32 b) {
  std::vector<u64> interrupted;
  if (!trunks_.fail_pair(a, b)) return interrupted;  // idempotent
  ++stats_.trunk_failures;
  const u32 failed = trunks_.pair_index(a, b);
  for (const auto& entry : live_) {
    bool holds = false;
    trunks_.for_each_tree_pair(
        std::views::transform(entry.second.legs, &Leg::shard),
        [&](u32 p) { holds = holds || p == failed; });
    if (holds) interrupted.push_back(entry.first);
  }
  for (const u64 id : interrupted) tear_down(id, config_.shards);
  obs::trace_emit("cluster", "trunk_failed",
                  static_cast<double>(interrupted.size()));
  CONFNET_AUDIT_HOOK(audit::check_cluster(*this));
  return interrupted;
}

bool Cluster::repair_trunk(u32 a, u32 b) {
  if (!trunks_.repair_pair(a, b)) return false;
  ++stats_.trunk_repairs;
  obs::trace_emit("cluster", "trunk_repaired", 0.0);
  CONFNET_AUDIT_HOOK(audit::check_cluster(*this));
  return true;
}

std::vector<u64> Cluster::fail_link(u32 shard, u32 level, u32 row) {
  expects(shard < config_.shards, "shard out of range");
  runtime::Command cmd;
  cmd.kind = runtime::CommandKind::kFailLink;
  cmd.level = level;
  cmd.row = row;
  const auto r = runtime_.call_pooled(shard, std::move(cmd)).take();
  std::vector<u64> interrupted;
  if (r.status != runtime::CommandStatus::kDone) return interrupted;
  if (r.ok) ++stats_.link_failures;

  // Fold the shard's impact into cluster bookkeeping: a victim repacked in
  // place kept its session id, so its leg stands as it is; a victim in
  // torn_sessions was dropped and dooms its whole conference.
  for (const auto& entry : live_) {
    for (const Leg& leg : entry.second.legs) {
      if (leg.shard == shard &&
          std::find(r.torn_sessions.begin(), r.torn_sessions.end(),
                    leg.session) != r.torn_sessions.end())
        interrupted.push_back(entry.first);
    }
  }
  for (const u64 id : interrupted) tear_down(id, shard);
  obs::trace_emit("cluster", "link_failed",
                  static_cast<double>(interrupted.size()));
  CONFNET_AUDIT_HOOK(audit::check_cluster(*this));
  return interrupted;
}

bool Cluster::repair_link(u32 shard, u32 level, u32 row) {
  expects(shard < config_.shards, "shard out of range");
  runtime::Command cmd;
  cmd.kind = runtime::CommandKind::kRepairLink;
  cmd.level = level;
  cmd.row = row;
  const auto r = runtime_.call_pooled(shard, std::move(cmd)).take();
  const bool repaired =
      r.status == runtime::CommandStatus::kDone && r.ok;
  if (repaired) ++stats_.link_repairs;
  CONFNET_AUDIT_HOOK(audit::check_cluster(*this));
  return repaired;
}

u64 Cluster::active_spans() const noexcept {
  u64 spans = 0;
  for (const auto& entry : live_)
    if (entry.second.spanning) ++spans;
  return spans;
}

void Cluster::cross_check() const {
  constexpr std::string_view kSub = "cluster";

  // (1) Every shard fabric passes both delivery checks: the incremental
  // FabricState closed form and the stateless Fabric::evaluate oracle. This
  // pins each leg's local fan-in to exactly its local member set (trunk
  // relay port included).
  for (u32 s = 0; s < config_.shards; ++s) {
    const auto& net = runtime_.shard(s).wait().sessions().network();
    audit::require(net.verify_delivery(), kSub,
                   "shard fabric failed incremental delivery verification");
    audit::require(net.verify_delivery_reference(), kSub,
                   "shard fabric failed stateless-oracle delivery check");
  }

  // (2) Flattened single-fabric oracle, streamed one conference at a time:
  // realize each live conference on one 2^(stages + log2 K) network, check
  // the realization and its member ports, count its rows into one
  // level-major load table, and compare its delivered member sets against
  // the cluster model (local fan-in with the relay port expanded to the
  // union of the remote legs' exports). Only one conference's realization
  // and signals are alive at a time.
  u32 k_bits = 0;
  while ((u32{1} << k_bits) < config_.shards) ++k_bits;
  const u32 n_flat = config_.stages + k_bits;
  const min::Network flat(config_.kind, n_flat);
  const u32 N_flat = flat.size();
  const sw::Fabric oracle(flat, sw::FabricConfig{});
  util::DynBitset owned(N_flat);  // member ports of the conferences so far
  // 16-bit like FabricState's live table: R1 keeps every count far below
  // kMaxLoad, and the guard below refuses a count that would pass it.
  std::vector<std::uint16_t> load(std::size_t{n_flat + 1} * N_flat, 0);

  for (const auto& entry : live_) {
    const Conference& c = entry.second;
    std::vector<std::vector<u32>> leg_locals(c.legs.size());
    sw::GroupRealization group;
    for (std::size_t i = 0; i < c.legs.size(); ++i) {
      const Leg& leg = c.legs[i];
      const auto& mgr = runtime_.shard(leg.shard).wait().sessions();
      audit::require(mgr.contains(leg.session), kSub,
                     "live leg has no session on its shard");
      const std::vector<u32>& ports = mgr.members_of(leg.session);
      // A spanning leg's last drawn port is its trunk relay termination;
      // the rest are conference members.
      const std::size_t real = c.spanning ? ports.size() - 1 : ports.size();
      audit::require(real == leg.members, kSub,
                     "leg member count disagrees with its shard session");
      for (std::size_t j = 0; j < real; ++j)
        leg_locals[i].push_back(
            static_cast<u32>(map_.global_of(leg.shard, ports[j])));
      group.members.insert(group.members.end(), leg_locals[i].begin(),
                           leg_locals[i].end());
    }
    std::sort(group.members.begin(), group.members.end());
    group.links = conf::all_pairs_links(config_.kind, n_flat, group.members);
#if defined(CONFNET_AUDIT)
    audit::check_group_realization(flat, group);
#endif
    sw::validate_realization(flat, group);
    for (u32 m : group.members) {
      audit::require(!owned.test(m), kSub,
                     "flattened conferences share a member port");
      owned.set(m);
    }
    for (u32 level = 0; level <= n_flat; ++level) {
      for (u32 row : group.links[level]) {
        std::uint16_t& users = load[std::size_t{level} * N_flat + row];
        expects(users < sw::FabricState::kMaxLoad,
                "flattened link load would pass the 16-bit ceiling");
        ++users;
      }
    }
    const sw::PropagationResult heard = oracle.propagate(group, nullptr);
    audit::require(heard.capability_violations == 0, kSub,
                   "flattened oracle hit capability violations");

    // Cluster-model delivery per leg: local fan-in of the leg's members,
    // with the relay injection expanded to the union of the other legs'
    // exports. (For an intra conference the relay term is empty.) The
    // oracle's delivered sets follow the sorted global member list.
    for (std::size_t i = 0; i < c.legs.size(); ++i) {
      std::vector<u32> expect = leg_locals[i];
      for (std::size_t j = 0; j < c.legs.size(); ++j)
        if (j != i)
          expect.insert(expect.end(), leg_locals[j].begin(),
                        leg_locals[j].end());
      std::sort(expect.begin(), expect.end());
      for (u32 member : leg_locals[i])
        audit::require(
            heard.delivered[sw::index_of(group.members, member)].values() ==
                expect,
            kSub, "cluster delivery disagrees with the flattened oracle");
    }
  }

  // The load table against the paper's bound R1: at most min(2^l, 2^(n-l))
  // disjoint ALL_PAIRS conferences share a level-l link. An external link
  // carries exactly the conference that owns its port, or nothing.
  for (u32 level = 0; level <= n_flat; ++level) {
    const u32 bound = min::r1_bound(n_flat, level);
    const bool external = level == 0 || level == n_flat;
    for (u32 row = 0; row < N_flat; ++row) {
      const u32 users = load[std::size_t{level} * N_flat + row];
      audit::require(users <= bound, kSub,
                     "flattened link carries more conferences than R1 allows");
      if (external)
        audit::require(users == (owned.test(row) ? 1u : 0u), kSub,
                       "flattened port link load disagrees with the members");
    }
  }

  // (3) The coordinator-side conservation law.
  audit::check_cluster(*this);
}

}  // namespace confnet::cluster

namespace confnet::audit {

void check_cluster_stats(const cluster::ClusterStats& stats, u64 live_intra,
                         u64 live_spans) {
  constexpr std::string_view kSub = "cluster";
  require(stats.consistent(), kSub,
          "cluster admission counters violate the conservation identities");
  require(stats.intra_accepted - stats.intra_closes -
                  stats.intra_interrupted ==
              live_intra,
          kSub, "live intra conferences != accepted - closed - interrupted");
  require(stats.span_accepted - stats.span_closes - stats.span_interrupted ==
              live_spans,
          kSub,
          "live spanning conferences != accepted - closed - interrupted");
}

void check_cluster(const cluster::Cluster& c) {
  constexpr std::string_view kSub = "cluster";
  u64 live_intra = 0;
  u64 live_spans = 0;
  std::vector<u32> recount(c.trunks_.pair_count(), 0);
  for (const auto& entry : c.live_) {
    const cluster::Cluster::Conference& conf = entry.second;
    require(!conf.legs.empty(), kSub, "live conference with no legs");
    require(conf.spanning == (conf.legs.size() > 1), kSub,
            "spanning flag disagrees with the leg count");
    for (std::size_t i = 0; i < conf.legs.size(); ++i) {
      require(conf.legs[i].shard < c.config_.shards, kSub,
              "leg on an out-of-range shard");
      require(i == 0 || conf.legs[i - 1].shard < conf.legs[i].shard, kSub,
              "legs not ascending by distinct shard");
      require(conf.legs[i].members >= 1, kSub, "leg with no members");
    }
    if (conf.spanning) {
      ++live_spans;
      c.trunks_.for_each_tree_pair(
          std::views::transform(conf.legs, &cluster::Cluster::Leg::shard),
          [&](u32 p) { ++recount[p]; });
    } else {
      require(conf.legs.front().members >= 2, kSub,
              "intra conference below the minimum size");
      ++live_intra;
    }
  }
  // `recount` counts live spanning conferences per pair — the sharer
  // refcount under lane multiplexing, not lanes. The ledger's refcounts
  // must match it exactly (ceil-division alone could mask a sharer leak
  // inside one lane's multiplex window).
  require(c.trunks_.sharers_by_pair() == recount, kSub,
          "trunk sharer refcounts disagree with the live-span recount");
  check_trunk_accounts(c.trunks_.used_by_pair(), recount,
                       c.trunks_.lanes_per_pair(),
                       c.trunks_.conferences_per_lane(),
                       c.trunks_.faulty_by_pair());
  check_cluster_stats(c.stats_, live_intra, live_spans);
}

}  // namespace confnet::audit
