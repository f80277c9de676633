#include "sim/cluster_traffic.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <tuple>
#include <utility>

#include "sim/des.hpp"
#include "util/rng.hpp"

namespace confnet::sim {

using u64 = min::u64;

namespace {

/// Weighted shard draw over the still-eligible entries of `weights`.
u32 draw_shard(util::Rng& rng, const std::vector<double>& weights,
               const std::vector<bool>& taken) {
  double total = 0.0;
  for (std::size_t s = 0; s < weights.size(); ++s)
    if (!taken[s]) total += weights[s];
  double x = rng.uniform() * total;
  for (std::size_t s = 0; s < weights.size(); ++s) {
    if (taken[s]) continue;
    x -= weights[s];
    if (x <= 0.0) return static_cast<u32>(s);
  }
  for (std::size_t s = weights.size(); s-- > 0;)
    if (!taken[s]) return static_cast<u32>(s);
  return 0;  // unreachable: at least one shard is always eligible
}

/// Unordered pair (a, b) for flat index `idx` in lexicographic order —
/// the inverse of TrunkBook::pair_index.
std::pair<u32, u32> pair_of_index(u32 shards, u32 idx) {
  for (u32 a = 0; a + 1 < shards; ++a) {
    const u32 count = shards - 1 - a;
    if (idx < count) return {a, a + 1 + idx};
    idx -= count;
  }
  return {0, 1};  // unreachable for idx < pair_count
}

}  // namespace

ClusterTrafficResult run_cluster_traffic(cluster::Cluster& cluster,
                                         const ClusterTrafficConfig& config) {
  const u32 shards = cluster.config().shards;
  const u32 n = cluster.config().stages;
  const u32 ports = u32{1} << n;
  expects(config.span_fraction >= 0.0 && config.span_fraction <= 1.0,
          "span_fraction must be a probability");
  expects(config.shard_weights.empty() ||
              config.shard_weights.size() == shards,
          "shard_weights must have one entry per shard");

  std::vector<double> weights = config.shard_weights;
  if (weights.empty()) weights.assign(shards, 1.0);
  for (double w : weights)
    expects(w > 0.0, "shard weights must be positive");

  if (!cluster.serving_runtime().started()) cluster.start();

  Simulator des;
  util::Rng rng(config.seed);
  ClusterTrafficResult result;

  // Time-weighted occupancy accounting (post-warmup), advanced before
  // every state change.
  double last = config.warmup;
  double active_area = 0.0;
  double span_area = 0.0;
  double trunk_area = 0.0;
  auto advance = [&](double now) {
    if (now <= last) return;
    const double dt = now - last;
    active_area += dt * static_cast<double>(cluster.active_conferences());
    span_area += dt * static_cast<double>(cluster.active_spans());
    trunk_area += dt * static_cast<double>(cluster.trunks().reserved_total());
    last = now;
  };

  // A live conference as the driver offered it, so a fault-interrupted one
  // can be re-offered with the identical leg layout.
  struct Offered {
    std::vector<cluster::LegSpec> legs;
    double departs;
  };
  std::map<u64, Offered> live;

  cluster::ClusterStats at_warmup;
  des.schedule(config.warmup, [&] { at_warmup = cluster.stats(); });

  // --- conference admission ------------------------------------------------

  auto make_legs = [&](u32 size) {
    std::vector<cluster::LegSpec> legs;
    const bool span = shards > 1 && config.span_fraction > 0.0 &&
                      rng.chance(config.span_fraction);
    if (!span) {
      std::vector<bool> taken(shards, false);
      legs.push_back({draw_shard(rng, weights, taken), std::max(size, 2u)});
      return legs;
    }
    const u32 max_touch =
        std::min(std::max(config.max_span_shards, 2u), shards);
    const u32 touch = static_cast<u32>(
        rng.between(2, std::max(2u, std::min(max_touch, size))));
    std::vector<bool> taken(shards, false);
    for (u32 i = 0; i < touch; ++i) {
      const u32 s = draw_shard(rng, weights, taken);
      taken[s] = true;
      legs.push_back({s, 1});  // every leg keeps at least one member
    }
    for (u32 m = touch; m < size; ++m)
      legs[rng.below(touch)].members += 1;
    std::sort(legs.begin(), legs.end(),
              [](const cluster::LegSpec& a, const cluster::LegSpec& b) {
                return a.shard < b.shard;
              });
    return legs;
  };

  std::function<void(u64)> departure = [&](u64 id) {
    advance(des.now());
    live.erase(id);
    (void)cluster.close(id);  // false when a fault already tore it down
  };

  auto offer = [&](std::vector<cluster::LegSpec> legs, double departs) {
    const cluster::OpenReport r = cluster.open(legs);
    if (r.result == cluster::Admit::kAccepted) {
      live.emplace(r.id, Offered{std::move(legs), departs});
      des.schedule(departs, [&, id = r.id] { departure(id); });
    }
    return r.result;
  };

  std::function<void()> arrival = [&] {
    advance(des.now());
    const u32 size = config.traffic.conference_size(rng);
    const double departs = des.now() + config.traffic.holding_time(rng);
    (void)offer(make_legs(size), departs);
    des.schedule_in(config.traffic.next_interarrival(rng), arrival);
  };
  des.schedule_in(config.traffic.next_interarrival(rng), arrival);

  // --- fault interruption bookkeeping -------------------------------------

  // Retry queue for retry_on_repair: victims parked per fault key until
  // the matching repair fires. Key = (kind, a/shard, b/level, 0/row) with
  // kind 0 = trunk pair, 1 = interstage link.
  using FaultKey = std::tuple<int, u32, u32, u32>;
  std::map<FaultKey, std::vector<Offered>> parked;

  auto reoffer = [&](Offered&& victim) {
    if (victim.departs > des.now() &&
        offer(std::move(victim.legs), victim.departs) ==
            cluster::Admit::kAccepted)
      ++result.reopened;
    else
      ++result.lost;
  };

  auto absorb_interrupts = [&](const std::vector<u64>& ids,
                               const FaultKey& key) {
    for (const u64 id : ids) {
      const auto it = live.find(id);
      if (it == live.end()) continue;
      Offered victim = std::move(it->second);
      live.erase(it);
      ++result.interrupted;
      if (!config.retry_interrupted) {
        ++result.lost;
      } else if (config.retry_on_repair) {
        parked[key].push_back(std::move(victim));
      } else {
        reoffer(std::move(victim));
      }
    }
  };

  /// The fault behind `key` is repaired: re-offer everything it parked.
  auto release_parked = [&](const FaultKey& key) {
    const auto it = parked.find(key);
    if (it == parked.end()) return;
    std::vector<Offered> queue = std::move(it->second);
    parked.erase(it);
    for (Offered& victim : queue) reoffer(std::move(victim));
  };

  // --- trunk fault process -------------------------------------------------
  // The recurring event closures live at function scope: scheduled events
  // capture them by reference and fire long after any inner block ends.

  const u32 pairs = cluster.trunks().pair_count();
  std::function<void(u32, u32)> trunk_repair = [&](u32 a, u32 b) {
    advance(des.now());
    if (cluster.repair_trunk(a, b)) release_parked(FaultKey{0, a, b, 0});
  };
  std::function<void()> trunk_fault = [&] {
    advance(des.now());
    // Sample a healthy pair; bail out when faults saturate the mesh.
    for (u32 attempt = 0; attempt < 8; ++attempt) {
      const auto [a, b] =
          pair_of_index(shards, static_cast<u32>(rng.below(pairs)));
      if (cluster.trunks().faulty(a, b)) continue;
      absorb_interrupts(cluster.fail_trunk(a, b), FaultKey{0, a, b, 0});
      des.schedule_in(rng.exponential(config.trunk_repair_rate),
                      [&, a = a, b = b] { trunk_repair(a, b); });
      break;
    }
    des.schedule_in(rng.exponential(config.trunk_fault_rate), trunk_fault);
  };
  if (config.trunk_fault_rate > 0.0 && shards > 1)
    des.schedule_in(rng.exponential(config.trunk_fault_rate), trunk_fault);

  // --- shard link fault process -------------------------------------------

  std::function<void(u32, u32, u32)> link_repair = [&](u32 s, u32 level,
                                                       u32 row) {
    advance(des.now());
    if (cluster.repair_link(s, level, row))
      release_parked(FaultKey{1, s, level, row});
  };
  std::function<void()> link_fault = [&] {
    advance(des.now());
    std::vector<bool> taken(shards, false);
    const u32 s = draw_shard(rng, weights, taken);
    // Interstage links live at levels 1..n-1.
    const u32 level = 1 + static_cast<u32>(rng.below(n - 1));
    const u32 row = static_cast<u32>(rng.below(ports));
    const u64 before = cluster.stats().link_failures;
    absorb_interrupts(cluster.fail_link(s, level, row),
                      FaultKey{1, s, level, row});
    if (cluster.stats().link_failures > before) {
      des.schedule_in(rng.exponential(config.link_repair_rate),
                      [&, s, level, row] { link_repair(s, level, row); });
    }
    des.schedule_in(rng.exponential(config.link_fault_rate), link_fault);
  };
  if (config.link_fault_rate > 0.0)
    des.schedule_in(rng.exponential(config.link_fault_rate), link_fault);

  // --- periodic deep verification -----------------------------------------

  std::function<void()> verify = [&] {
    ++result.functional_checks;
    try {
      cluster.drain();
      cluster.cross_check();
    } catch (const audit::AuditError&) {
      result.functional_ok = false;
      des.stop();
      return;
    }
    des.schedule_in(config.verify_interval, verify);
  };
  if (config.verify_functional)
    des.schedule_in(config.verify_interval, verify);

  des.run_until(config.duration);
  advance(std::max(config.duration, last));
  cluster.drain();

  // Victims still parked at the horizon never saw their repair: they are
  // lost, keeping interrupted == reopened + lost exact.
  for (const auto& [key, queue] : parked)
    result.lost += queue.size();
  parked.clear();

  // --- results -------------------------------------------------------------

  result.stats = cluster.stats();
  const cluster::ClusterStats& s = result.stats;
  const u64 intra_opens = s.intra_opens - at_warmup.intra_opens;
  const u64 span_opens = s.span_opens - at_warmup.span_opens;
  if (intra_opens > 0)
    result.intra_blocking =
        static_cast<double>(s.intra_blocked - at_warmup.intra_blocked) /
        static_cast<double>(intra_opens);
  if (span_opens > 0) {
    const u64 blocked_local =
        s.span_blocked_local - at_warmup.span_blocked_local;
    const u64 blocked_trunk =
        s.span_blocked_trunk - at_warmup.span_blocked_trunk;
    result.span_blocking =
        static_cast<double>(blocked_local + blocked_trunk) /
        static_cast<double>(span_opens);
    result.span_trunk_blocking = static_cast<double>(blocked_trunk) /
                                 static_cast<double>(span_opens);
  }
  const double window = last - config.warmup;
  if (window > 0.0) {
    result.mean_active = active_area / window;
    result.mean_active_spans = span_area / window;
    const double lane_capacity =
        static_cast<double>(cluster.trunks().pair_count()) *
        cluster.config().trunk_lanes;
    if (lane_capacity > 0.0)
      result.trunk_utilization = trunk_area / window / lane_capacity;
  }
  result.trunk_peak = cluster.trunks().peak_pair_used();
  result.events = des.events_processed();
  return result;
}

}  // namespace confnet::sim
