// Functional tests of the multi-fabric cluster layer: port/trunk mapping,
// multiplexed trunk-lane algebra (refcount round-trips, ceil-division lane
// accounting, exhaustion at the conferences_per_lane boundary), intra- and
// cross-shard admission through the single-round optimistic claim (trunk
// exhaustion refuses before any shard command; a leg refusal rolls the
// provisional mesh back with zero residue, audit-verified), randomized
// step-by-step equivalence of the span protocol against a serial model of
// the cluster, fault interruption over trunks and shard
// links (fail_pair tears down every lane sharer), worker-count determinism
// of the whole cluster, multi-seed delivery equivalence against the
// flattened single-fabric oracle (cross_check), and the cluster
// teletraffic driver's determinism and conservation accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/portmap.hpp"
#include "cluster/trunkbook.hpp"
#include "conference/designs.hpp"
#include "conference/waitqueue.hpp"
#include "sim/cluster_traffic.hpp"
#include "util/audit.hpp"
#include "util/rng.hpp"

namespace {

using confnet::min::u32;
using confnet::min::u64;
namespace cl = confnet::cluster;
namespace conf = confnet::conf;
namespace audit = confnet::audit;
namespace sim = confnet::sim;

cl::ClusterConfig small_config(u32 shards = 4, u32 workers = 1) {
  cl::ClusterConfig cfg;
  cfg.shards = shards;
  cfg.workers = workers;
  cfg.stages = 4;  // 16 ports per shard
  cfg.trunk_lanes = 2;
  cfg.seed = 7;
  return cfg;
}

std::vector<cl::LegSpec> span(std::initializer_list<cl::LegSpec> legs) {
  return std::vector<cl::LegSpec>(legs);
}

// ---------------------------------------------------------------------------
// Port map and trunk book.
// ---------------------------------------------------------------------------

TEST(PortMap, GlobalLocalRoundTrip) {
  const cl::PortMap map(4, 16);
  EXPECT_EQ(map.total_ports(), 64u);
  for (u64 g = 0; g < map.total_ports(); ++g) {
    EXPECT_TRUE(map.contains(g));
    EXPECT_EQ(map.global_of(map.shard_of(g), map.local_of(g)), g);
  }
  EXPECT_EQ(map.shard_of(17), 1u);
  EXPECT_EQ(map.local_of(17), 1u);
  EXPECT_FALSE(map.contains(64));
}

TEST(TrunkBook, PairIndexIsABijection) {
  const cl::TrunkBook book(5, 1);
  std::vector<bool> seen(book.pair_count(), false);
  for (u32 a = 0; a < 5; ++a) {
    for (u32 b = a + 1; b < 5; ++b) {
      const u32 idx = book.pair_index(a, b);
      ASSERT_LT(idx, book.pair_count());
      EXPECT_FALSE(seen[idx]) << "pair index collision at (" << a << "," << b
                              << ")";
      seen[idx] = true;
      EXPECT_EQ(book.pair_index(b, a), idx) << "index must be unordered";
    }
  }
}

TEST(TrunkBook, MeshReserveIsAllOrNothing) {
  cl::TrunkBook book(4, 1);
  ASSERT_TRUE(book.reserve_mesh({0, 1}));
  EXPECT_EQ(book.used(0, 1), 1u);
  // {0,1,2} needs pair (0,1) again — exhausted — so nothing else may be
  // taken either.
  EXPECT_FALSE(book.reserve_mesh({0, 1, 2}));
  EXPECT_EQ(book.used(0, 2), 0u);
  EXPECT_EQ(book.used(1, 2), 0u);
  // A mesh avoiding the busy pair still fits.
  ASSERT_TRUE(book.reserve_mesh({0, 2}));
  book.release_mesh({0, 1});
  book.release_mesh({0, 2});
  EXPECT_EQ(book.reserved_total(), 0u);
  EXPECT_EQ(book.lane_acquires(), 2u)
      << "the refused mesh must not count acquisitions";

  ASSERT_TRUE(book.fail_pair(1, 2));
  EXPECT_FALSE(book.fail_pair(1, 2)) << "fail_pair must be idempotent";
  EXPECT_FALSE(book.reserve_mesh({1, 2})) << "faulty pair must refuse lanes";
  ASSERT_TRUE(book.repair_pair(1, 2));
  EXPECT_TRUE(book.reserve_mesh({1, 2}));
}

TEST(TrunkBook, MultiplexedLaneRefcountRoundTrip) {
  cl::TrunkBook book(4, 2, /*conferences_per_lane=*/3);
  EXPECT_EQ(book.conferences_per_lane(), 3u);
  // Sharers pile onto the first lane until it is full, then light the
  // second: used = ceil(sharers / 3).
  for (u32 i = 1; i <= 6; ++i) {
    ASSERT_TRUE(book.reserve_mesh({0, 1})) << "sharer " << i;
    EXPECT_EQ(book.sharers(0, 1), i);
    EXPECT_EQ(book.used(0, 1), (i + 2) / 3);
  }
  EXPECT_EQ(book.lane_acquires(), 2u)
      << "joiners of a lit lane must not count as lane acquisitions";
  EXPECT_EQ(book.reserved_total(), 2u);
  EXPECT_EQ(book.sharers_total(), 6u);
  EXPECT_EQ(book.peak_pair_used(), 2u);
  // Releases walk the ladder back down symmetrically.
  for (u32 i = 6; i > 0; --i) {
    book.release_mesh({0, 1});
    EXPECT_EQ(book.sharers(0, 1), i - 1);
    EXPECT_EQ(book.used(0, 1), (i - 1 + 2) / 3);
  }
  EXPECT_EQ(book.reserved_total(), 0u);
  EXPECT_EQ(book.sharers_total(), 0u);
}

TEST(TrunkBook, ExhaustionAtTheConferencesPerLaneBoundary) {
  cl::TrunkBook book(3, 1, /*conferences_per_lane=*/2);
  ASSERT_TRUE(book.reserve_mesh({0, 1}));
  ASSERT_TRUE(book.reserve_mesh({0, 1}))
      << "one lane must multiplex two conferences";
  EXPECT_FALSE(book.reserve_mesh({0, 1}))
      << "the third sharer exceeds lanes * conferences_per_lane";
  EXPECT_EQ(book.sharers(0, 1), 2u);
  EXPECT_EQ(book.used(0, 1), 1u);
  // All-or-nothing still holds against the sharer bound: {0,1,2} needs the
  // saturated pair (0,1), so the free pairs stay untouched.
  EXPECT_FALSE(book.reserve_mesh({0, 1, 2}));
  EXPECT_EQ(book.sharers(0, 2), 0u);
  EXPECT_EQ(book.sharers(1, 2), 0u);
  book.release_mesh({0, 1});
  EXPECT_TRUE(book.reserve_mesh({0, 1}))
      << "a released sharer slot must be reusable";
}

// ---------------------------------------------------------------------------
// Admission: intra, spanning, and the refusal/rollback paths of the
// single-round claim/open/settle protocol.
// ---------------------------------------------------------------------------

TEST(Cluster, IntraOpenCloseRoundTrip) {
  cl::Cluster c(small_config());
  c.start();
  const auto r = c.open({{0, 4}});
  ASSERT_EQ(r.result, cl::Admit::kAccepted);
  EXPECT_EQ(c.active_conferences(), 1u);
  EXPECT_EQ(c.active_spans(), 0u);
  EXPECT_NO_THROW(c.cross_check());
  EXPECT_TRUE(c.close(r.id));
  EXPECT_FALSE(c.close(r.id)) << "closing twice must report not-live";
  EXPECT_EQ(c.active_conferences(), 0u);
  EXPECT_EQ(c.stats().intra_accepted, 1u);
  EXPECT_EQ(c.stats().intra_closes, 1u);
  EXPECT_NO_THROW(audit::check_cluster(c));
  c.stop();
}

TEST(Cluster, SpanningConferenceReservesItsTrunkMesh) {
  cl::Cluster c(small_config());
  c.start();
  const auto r = c.open(span({{0, 2}, {1, 1}, {3, 2}}));
  ASSERT_EQ(r.result, cl::Admit::kAccepted);
  EXPECT_EQ(c.active_spans(), 1u);
  EXPECT_EQ(c.trunks().used(0, 1), 1u);
  EXPECT_EQ(c.trunks().used(0, 3), 1u);
  EXPECT_EQ(c.trunks().used(1, 3), 1u);
  EXPECT_EQ(c.trunks().used(1, 2), 0u);
  EXPECT_EQ(c.stats().legs_reserved, 3u);
  EXPECT_NO_THROW(c.cross_check());
  EXPECT_TRUE(c.close(r.id));
  EXPECT_EQ(c.trunks().reserved_total(), 0u);
  EXPECT_NO_THROW(audit::check_cluster(c));
  c.stop();
}

TEST(Cluster, TrunkExhaustionRefusesBeforeAnyShardCommand) {
  cl::ClusterConfig cfg = small_config();
  cfg.trunk_lanes = 1;
  cl::Cluster c(cfg);
  c.start();
  ASSERT_EQ(c.open(span({{0, 2}, {1, 2}})).result, cl::Admit::kAccepted);
  c.drain();  // publish the burst so the baseline snapshot is current
  const auto before = c.runtime_snapshot();

  // Pair (0,1) is exhausted: the optimistic claim refuses during the trunk
  // phase, before a single leg command reaches any shard — the refusal is
  // free of coordination rounds and leaves nothing to roll back.
  const auto r = c.open(span({{0, 3}, {1, 3}}));
  EXPECT_EQ(r.result, cl::Admit::kBlockedTrunk);
  c.drain();
  const auto after = c.runtime_snapshot();
  EXPECT_EQ(after.total.active_sessions, before.total.active_sessions)
      << "trunk-blocked span left shard sessions behind";
  EXPECT_EQ(after.total.opens, before.total.opens)
      << "the optimistic claim must refuse before any shard open is issued";
  EXPECT_EQ(c.stats().legs_rolled_back, 0u);
  EXPECT_EQ(c.stats().span_blocked_trunk, 1u);
  EXPECT_NO_THROW(audit::check_cluster(c));
  EXPECT_NO_THROW(c.cross_check());

  // A mesh over a free pair still commits.
  EXPECT_EQ(c.open(span({{2, 2}, {3, 2}})).result, cl::Admit::kAccepted);
  c.stop();
}

TEST(Cluster, MultiplexedLaneCarriesSeveralSpansAndFailsAsOne) {
  cl::ClusterConfig cfg = small_config();
  cfg.trunk_lanes = 1;
  cfg.conferences_per_lane = 2;
  cl::Cluster c(cfg);
  c.start();
  const auto a = c.open(span({{0, 2}, {1, 2}}));
  const auto b = c.open(span({{0, 1}, {1, 1}}));
  ASSERT_EQ(a.result, cl::Admit::kAccepted);
  ASSERT_EQ(b.result, cl::Admit::kAccepted)
      << "one lane at conferences_per_lane=2 must carry a second span";
  EXPECT_EQ(c.trunks().used(0, 1), 1u);
  EXPECT_EQ(c.trunks().sharers(0, 1), 2u);
  EXPECT_EQ(c.open(span({{0, 1}, {1, 1}})).result, cl::Admit::kBlockedTrunk)
      << "the sharer bound (lanes * conferences_per_lane) still applies";
  EXPECT_NO_THROW(c.cross_check());

  // The lane is one physical resource: its fault interrupts every sharer.
  const auto torn = c.fail_trunk(0, 1);
  ASSERT_EQ(torn.size(), 2u);
  EXPECT_EQ(c.active_conferences(), 0u);
  EXPECT_EQ(c.trunks().sharers(0, 1), 0u);
  EXPECT_EQ(c.stats().span_interrupted, 2u);
  EXPECT_NO_THROW(audit::check_cluster(c));
  EXPECT_NO_THROW(c.cross_check());
  c.stop();
}

TEST(Cluster, MidReserveShardBlockLeavesZeroResidue) {
  cl::ClusterConfig cfg = small_config();
  cfg.stages = 3;  // 8 ports per shard
  cl::Cluster c(cfg);
  c.start();
  // Fill shard 1 completely so its leg reservation must refuse.
  ASSERT_EQ(c.open({{1, 8}}).result, cl::Admit::kAccepted);
  c.drain();  // publish the burst so the baseline snapshot is current
  const auto before = c.runtime_snapshot();

  const auto r = c.open(span({{0, 2}, {1, 2}, {2, 2}}));
  EXPECT_EQ(r.result, cl::Admit::kBlockedLocal);
  EXPECT_EQ(r.blocked_shard, 1u);
  c.drain();
  const auto after = c.runtime_snapshot();
  EXPECT_EQ(after.total.active_sessions, before.total.active_sessions)
      << "locally-blocked span left reservations on other shards";
  EXPECT_EQ(c.trunks().reserved_total(), 0u)
      << "no trunk lane may be touched before every leg is granted";
  EXPECT_EQ(c.stats().span_blocked_local, 1u);
  EXPECT_EQ(c.stats().legs_rolled_back, c.stats().legs_reserved)
      << "every granted leg of the failed attempt must be rolled back";
  EXPECT_NO_THROW(audit::check_cluster(c));
  EXPECT_NO_THROW(c.cross_check());
  c.stop();
}

// ---------------------------------------------------------------------------
// Faults: trunk and shard-link interruption.
// ---------------------------------------------------------------------------

TEST(Cluster, TrunkFaultTearsDownCrossingSpansOnly) {
  cl::Cluster c(small_config());
  c.start();
  const auto crossing = c.open(span({{0, 2}, {1, 2}}));
  const auto other = c.open(span({{2, 2}, {3, 2}}));
  const auto intra = c.open({{0, 3}});
  ASSERT_EQ(crossing.result, cl::Admit::kAccepted);
  ASSERT_EQ(other.result, cl::Admit::kAccepted);
  ASSERT_EQ(intra.result, cl::Admit::kAccepted);

  const auto torn = c.fail_trunk(0, 1);
  ASSERT_EQ(torn.size(), 1u);
  EXPECT_EQ(torn.front(), crossing.id);
  EXPECT_EQ(c.active_conferences(), 2u);
  EXPECT_EQ(c.trunks().used(0, 1), 0u);
  EXPECT_EQ(c.stats().span_interrupted, 1u);
  EXPECT_TRUE(c.fail_trunk(0, 1).empty()) << "failing twice must be a no-op";
  EXPECT_NO_THROW(c.cross_check());

  // While faulty, a mesh over the pair is refused at commit time.
  EXPECT_EQ(c.open(span({{0, 2}, {1, 2}})).result, cl::Admit::kBlockedTrunk);
  ASSERT_TRUE(c.repair_trunk(0, 1));
  EXPECT_FALSE(c.repair_trunk(0, 1));
  EXPECT_EQ(c.open(span({{0, 2}, {1, 2}})).result, cl::Admit::kAccepted);
  EXPECT_NO_THROW(c.cross_check());
  c.stop();
}

TEST(Cluster, LinkFaultEitherRehomesOrTearsDownDeterministically) {
  cl::ClusterConfig cfg = small_config();
  cfg.dilation = 1;  // make interstage links scarce enough to matter
  cl::Cluster c(cfg);
  c.start();
  std::vector<u64> opened;
  for (u32 i = 0; i < 3; ++i) {
    const auto r = c.open(span({{0, 2}, {1, 2}}));
    if (r.result == cl::Admit::kAccepted) opened.push_back(r.id);
    const auto ri = c.open({{1, 3}});
    if (ri.result == cl::Admit::kAccepted) opened.push_back(ri.id);
  }
  ASSERT_FALSE(opened.empty());

  u64 interrupted_total = 0;
  for (u32 row = 0; row < 16 && interrupted_total == 0; ++row) {
    const auto torn = c.fail_link(1, 1, row);
    interrupted_total += torn.size();
    // Whatever happened — rehomed legs, torn conferences, or nothing —
    // the cluster must stay conserving and oracle-equivalent.
    EXPECT_NO_THROW(audit::check_cluster(c));
    EXPECT_NO_THROW(c.cross_check());
    EXPECT_TRUE(c.repair_link(1, 1, row));
  }
  const auto& s = c.stats();
  EXPECT_EQ(s.span_interrupted + s.intra_interrupted +
                (c.active_conferences() + s.span_closes + s.intra_closes),
            s.span_accepted + s.intra_accepted)
      << "every accepted conference must be live, closed, or interrupted";
  c.stop();
}

// ---------------------------------------------------------------------------
// Determinism and the flattened-oracle equivalence (multi-seed).
// ---------------------------------------------------------------------------

/// Deterministic mixed open/close/fault script driven by `seed`; returns
/// the surviving conference ids.
std::vector<u64> run_script(cl::Cluster& c, u64 seed) {
  confnet::util::Rng rng(seed);
  const u32 shards = c.config().shards;
  std::vector<u64> open_ids;
  for (int step = 0; step < 120; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.45) {
      const u32 size = static_cast<u32>(rng.between(2, 6));
      const auto r = c.open({{static_cast<u32>(rng.below(shards)), size}});
      if (r.result == cl::Admit::kAccepted) open_ids.push_back(r.id);
    } else if (roll < 0.75) {
      const u32 a = static_cast<u32>(rng.below(shards));
      const u32 b = (a + 1 + static_cast<u32>(rng.below(shards - 1))) % shards;
      const auto r = c.open(span(
          {{std::min(a, b), static_cast<u32>(rng.between(1, 3))},
           {std::max(a, b), static_cast<u32>(rng.between(1, 3))}}));
      if (r.result == cl::Admit::kAccepted) open_ids.push_back(r.id);
    } else if (roll < 0.95 && !open_ids.empty()) {
      const std::size_t pick = rng.below(open_ids.size());
      (void)c.close(open_ids[pick]);
      open_ids.erase(open_ids.begin() +
                     static_cast<std::ptrdiff_t>(pick));
    } else {
      const u32 a = static_cast<u32>(rng.below(shards));
      const u32 b = (a + 1) % shards;
      const auto torn = c.fail_trunk(std::min(a, b), std::max(a, b));
      for (const u64 id : torn)
        open_ids.erase(std::remove(open_ids.begin(), open_ids.end(), id),
                       open_ids.end());
      (void)c.repair_trunk(std::min(a, b), std::max(a, b));
    }
  }
  return open_ids;
}

TEST(Cluster, CrossCheckHoldsAcrossSeedsAndChurn) {
  for (const u64 seed : {1u, 2u, 3u, 4u, 5u}) {
    cl::Cluster c(small_config());
    c.start();
    (void)run_script(c, seed);
    c.drain();
    ASSERT_NO_THROW(c.cross_check()) << "seed " << seed;
    ASSERT_TRUE(c.stats().consistent()) << "seed " << seed;
    c.stop();
  }
}

/// The cluster-visible fingerprint of a finished run; independent of the
/// worker count by the determinism contract.
struct Fingerprint {
  cl::ClusterStats stats;
  u64 reserved;
  u64 acquires;
  u64 live;
  u64 spans;

  bool operator==(const Fingerprint& o) const {
    return stats.intra_opens == o.stats.intra_opens &&
           stats.intra_accepted == o.stats.intra_accepted &&
           stats.intra_blocked == o.stats.intra_blocked &&
           stats.span_opens == o.stats.span_opens &&
           stats.span_accepted == o.stats.span_accepted &&
           stats.span_blocked_local == o.stats.span_blocked_local &&
           stats.span_blocked_trunk == o.stats.span_blocked_trunk &&
           stats.span_interrupted == o.stats.span_interrupted &&
           stats.legs_reserved == o.stats.legs_reserved &&
           stats.legs_rolled_back == o.stats.legs_rolled_back &&
           reserved == o.reserved && acquires == o.acquires &&
           live == o.live && spans == o.spans;
  }
};

Fingerprint fingerprint(const cl::Cluster& c) {
  return Fingerprint{c.stats(), c.trunks().reserved_total(),
                     c.trunks().lane_acquires(), c.active_conferences(),
                     c.active_spans()};
}

TEST(Cluster, OutcomesAreIndependentOfWorkerCount) {
  std::vector<Fingerprint> prints;
  for (const u32 workers : {1u, 2u, 4u}) {
    cl::Cluster c(small_config(4, workers));
    c.start();
    (void)run_script(c, 42);
    c.drain();
    prints.push_back(fingerprint(c));
    EXPECT_NO_THROW(c.cross_check());
    c.stop();
  }
  EXPECT_TRUE(prints[0] == prints[1])
      << "1-worker and 2-worker runs disagree";
  EXPECT_TRUE(prints[0] == prints[2])
      << "1-worker and 4-worker runs disagree";
}

// ---------------------------------------------------------------------------
// Raw audit checker fires on corrupted trunk ledgers (negative test).
// ---------------------------------------------------------------------------

TEST(ClusterAudit, TrunkAccountCheckerFiresOnEveryCorruption) {
  const std::vector<u32> used = {1, 0, 2};
  const std::vector<bool> healthy = {false, false, false};
  EXPECT_NO_THROW(audit::check_trunk_accounts(used, used, 2, 1, healthy));
  EXPECT_THROW(audit::check_trunk_accounts(used, {1, 0, 1}, 2, 1, healthy),
               audit::AuditError)
      << "usage/recount disagreement must fire";
  EXPECT_THROW(
      audit::check_trunk_accounts({3, 0, 0}, {3, 0, 0}, 2, 1, healthy),
      audit::AuditError)
      << "over-capacity pair must fire";
  EXPECT_THROW(
      audit::check_trunk_accounts(used, used, 2, 1, {true, false, false}),
      audit::AuditError)
      << "faulty pair with live sharers must fire";
  EXPECT_THROW(audit::check_trunk_accounts(used, {1, 0}, 2, 1, healthy),
               audit::AuditError)
      << "pair-count mismatch must fire";
  EXPECT_THROW(audit::check_trunk_accounts(used, used, 2, 0, healthy),
               audit::AuditError)
      << "conferences_per_lane below one must fire";

  // Multiplexed ledgers: used lanes must equal ceil(sharers / cpl).
  const std::vector<bool> h2 = {false, false};
  EXPECT_NO_THROW(audit::check_trunk_accounts({1, 2}, {2, 3}, 2, 2, h2));
  EXPECT_THROW(audit::check_trunk_accounts({2, 0}, {2, 0}, 2, 2, h2),
               audit::AuditError)
      << "a lane lit below the sharer boundary must fire";
  EXPECT_THROW(audit::check_trunk_accounts({1, 0}, {5, 0}, 2, 2, h2),
               audit::AuditError)
      << "sharers beyond lanes * conferences_per_lane must fire";
}

// ---------------------------------------------------------------------------
// Span protocol vs a serial model (randomized, multi-seed, multi-worker).
// The model runs the same claim/open/settle steps on one thread: shard i is
// a loss-mode WaitQueueManager on the same fabric, seeded like the live
// shard (seed + i), so it assigns the same session ids; a span claims its
// TrunkBook mesh first, then opens every leg (members + 1 relay port), and
// a refused leg rolls the granted ones back. The live cluster must match it
// at every step: verdict, blocking cause, cluster id and leg sessions.
// ---------------------------------------------------------------------------

class ClusterModel {
 public:
  explicit ClusterModel(const cl::ClusterConfig& cfg)
      : trunks_(cfg.shards, cfg.trunk_lanes, cfg.conferences_per_lane) {
    for (u32 s = 0; s < cfg.shards; ++s)
      shards_.push_back(std::make_unique<ShardModel>(cfg, s));
  }

  /// Same contract as Cluster::open; `legs` ascending by shard.
  cl::OpenReport open(const std::vector<cl::LegSpec>& legs) {
    if (legs.size() == 1) {
      const auto session = shard_open(legs[0].shard, legs[0].members);
      if (!session) return {cl::Admit::kBlockedLocal, 0, legs[0].shard};
      return accept({{legs[0].shard, *session, legs[0].members}}, false);
    }
    const std::vector<u32> touched = shards_of(legs);
    if (!trunks_.reserve_mesh(touched)) return {cl::Admit::kBlockedTrunk, 0, 0};
    std::vector<cl::Cluster::Leg> granted;
    std::optional<u32> refused;
    for (const cl::LegSpec& leg : legs) {
      const auto session = shard_open(leg.shard, leg.members + 1);
      if (session)
        granted.push_back({leg.shard, *session, leg.members});
      else if (!refused)
        refused = leg.shard;
    }
    if (refused) {
      for (const cl::Cluster::Leg& leg : granted) shard_close(leg);
      trunks_.release_mesh(touched);
      return {cl::Admit::kBlockedLocal, 0, *refused};
    }
    return accept(std::move(granted), true);
  }

  bool close(u64 id) {
    const auto it = live_.find(id);
    if (it == live_.end()) return false;
    for (const cl::Cluster::Leg& leg : it->second.legs) shard_close(leg);
    if (it->second.spanning) {
      std::vector<u32> touched;
      for (const cl::Cluster::Leg& leg : it->second.legs)
        touched.push_back(leg.shard);
      trunks_.release_mesh(touched);
    }
    live_.erase(it);
    return true;
  }

  std::vector<u64> fail_trunk(u32 a, u32 b) {
    std::vector<u64> torn;
    if (!trunks_.fail_pair(a, b)) return torn;
    for (const auto& [id, c] : live_) {
      const auto on = [&c](u32 shard) {
        return std::any_of(c.legs.begin(), c.legs.end(),
                           [shard](const cl::Cluster::Leg& leg) {
                             return leg.shard == shard;
                           });
      };
      if (c.spanning && on(a) && on(b)) torn.push_back(id);
    }
    for (const u64 id : torn) (void)close(id);
    return torn;
  }

  bool repair_trunk(u32 a, u32 b) { return trunks_.repair_pair(a, b); }

  [[nodiscard]] const std::map<u64, cl::Cluster::Conference>& live() const {
    return live_;
  }
  [[nodiscard]] const cl::TrunkBook& trunks() const { return trunks_; }

 private:
  struct ShardModel {
    ShardModel(const cl::ClusterConfig& cfg, u32 index)
        : net(cfg.kind, cfg.stages,
              conf::DilationProfile::uniform(cfg.stages, cfg.dilation)),
          wait(net, cfg.policy, /*queue_capacity=*/0, /*allow_bypass=*/false,
               cfg.backend),
          rng(cfg.seed + index) {}
    conf::DirectConferenceNetwork net;
    conf::WaitQueueManager wait;
    confnet::util::Rng rng;
  };

  static std::vector<u32> shards_of(const std::vector<cl::LegSpec>& legs) {
    std::vector<u32> shards;
    for (const cl::LegSpec& leg : legs) shards.push_back(leg.shard);
    return shards;
  }

  std::optional<u32> shard_open(u32 shard, u32 size) {
    ShardModel& sh = *shards_[shard];
    const auto r = sh.wait.request(size, sh.rng);
    if (r.outcome != conf::RequestOutcome::kServed) return std::nullopt;
    return r.session;
  }

  void shard_close(const cl::Cluster::Leg& leg) {
    ShardModel& sh = *shards_[leg.shard];
    (void)sh.wait.close(leg.session, sh.rng);
  }

  cl::OpenReport accept(std::vector<cl::Cluster::Leg> legs, bool spanning) {
    const u64 id = next_id_++;
    live_.emplace(id, cl::Cluster::Conference{std::move(legs), spanning});
    return {cl::Admit::kAccepted, id, 0};
  }

  std::vector<std::unique_ptr<ShardModel>> shards_;
  cl::TrunkBook trunks_;
  std::map<u64, cl::Cluster::Conference> live_;
  u64 next_id_ = 0;
};

/// Asserts that the cluster's conference `id` has exactly the model's legs.
void expect_same_legs(const cl::Cluster& c, const ClusterModel& model,
                      u64 id, int step) {
  const auto& got = c.conferences().at(id).legs;
  const auto& want = model.live().at(id).legs;
  ASSERT_EQ(got.size(), want.size()) << "step " << step;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].shard, want[i].shard) << "step " << step;
    EXPECT_EQ(got[i].session, want[i].session)
        << "leg session diverged, step " << step;
    EXPECT_EQ(got[i].members, want[i].members) << "step " << step;
  }
}

void run_equivalence_script(cl::Cluster& c, ClusterModel& model, u64 seed) {
  confnet::util::Rng rng(seed);
  const u32 shards = c.config().shards;
  std::vector<u64> ids;  // identical in both by the verdict match
  for (int step = 0; step < 150; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.75) {
      std::vector<cl::LegSpec> legs;
      if (roll < 0.35) {
        legs = {{static_cast<u32>(rng.below(shards)),
                 static_cast<u32>(rng.between(2, 6))}};
      } else {
        const u32 a = static_cast<u32>(rng.below(shards));
        const u32 b =
            (a + 1 + static_cast<u32>(rng.below(shards - 1))) % shards;
        legs = span({{std::min(a, b), static_cast<u32>(rng.between(1, 3))},
                     {std::max(a, b), static_cast<u32>(rng.between(1, 3))}});
      }
      const auto got = c.open(legs);
      const auto want = model.open(legs);
      ASSERT_EQ(got.result, want.result) << "verdict diverged, step " << step;
      if (got.result == cl::Admit::kBlockedLocal) {
        EXPECT_EQ(got.blocked_shard, want.blocked_shard) << "step " << step;
      }
      if (got.result == cl::Admit::kAccepted) {
        ASSERT_EQ(got.id, want.id) << "step " << step;
        expect_same_legs(c, model, got.id, step);
        ids.push_back(got.id);
      }
    } else if (roll < 0.92 && !ids.empty()) {
      const std::size_t pick = rng.below(ids.size());
      ASSERT_EQ(c.close(ids[pick]), model.close(ids[pick]));
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const u32 a = static_cast<u32>(rng.below(shards));
      const u32 b = (a + 1) % shards;
      const auto torn = c.fail_trunk(std::min(a, b), std::max(a, b));
      ASSERT_EQ(torn, model.fail_trunk(std::min(a, b), std::max(a, b)))
          << "trunk-fault teardown diverged, step " << step;
      for (const u64 id : torn)
        ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
      ASSERT_EQ(c.repair_trunk(std::min(a, b), std::max(a, b)),
                model.repair_trunk(std::min(a, b), std::max(a, b)));
    }
  }
}

TEST(Cluster, OptimisticProtocolMatchesReferenceAcrossSeedsAndWorkers) {
  for (const u32 workers : {1u, 2u}) {
    for (const u32 cpl : {1u, 2u}) {
      for (const u64 seed : {3u, 11u, 27u}) {
        cl::ClusterConfig cfg = small_config(4, workers);
        cfg.trunk_lanes = 1;  // make trunk refusals common
        cfg.conferences_per_lane = cpl;
        cl::Cluster c(cfg);
        ClusterModel model(cfg);
        c.start();
        run_equivalence_script(c, model, seed);
        if (::testing::Test::HasFatalFailure()) return;
        c.drain();

        // Converged state is identical, live conference by live conference.
        ASSERT_EQ(c.active_conferences(), model.live().size());
        for (const auto& entry : model.live())
          expect_same_legs(c, model, entry.first, -1);
        EXPECT_EQ(c.trunks().reserved_total(), model.trunks().reserved_total());
        EXPECT_EQ(c.trunks().sharers_total(), model.trunks().sharers_total());
        EXPECT_GT(c.stats().span_blocked_trunk, 0u)
            << "the script must exercise trunk refusals";
        EXPECT_NO_THROW(c.cross_check())
            << "workers=" << workers << " cpl=" << cpl << " seed=" << seed;
        c.stop();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Teletraffic driver: determinism, conservation, and fault accounting.
// ---------------------------------------------------------------------------

sim::ClusterTrafficConfig traffic_config(u64 seed) {
  sim::ClusterTrafficConfig cfg;
  cfg.traffic.arrival_rate = 4.0;
  cfg.traffic.mean_holding = 2.0;
  cfg.traffic.min_size = 2;
  cfg.traffic.max_size = 6;
  cfg.span_fraction = 0.4;
  cfg.duration = 120.0;
  cfg.warmup = 20.0;
  cfg.seed = seed;
  cfg.trunk_fault_rate = 0.05;
  cfg.trunk_repair_rate = 1.0;
  cfg.link_fault_rate = 0.05;
  cfg.link_repair_rate = 1.0;
  cfg.verify_functional = true;
  cfg.verify_interval = 30.0;
  return cfg;
}

TEST(ClusterTraffic, SameSeedReproducesTheRunExactly) {
  std::vector<Fingerprint> prints;
  sim::ClusterTrafficResult first{};
  for (int rep = 0; rep < 2; ++rep) {
    cl::Cluster c(small_config());
    const auto r = sim::run_cluster_traffic(c, traffic_config(11));
    EXPECT_TRUE(r.functional_ok);
    EXPECT_TRUE(r.stats.consistent());
    prints.push_back(fingerprint(c));
    if (rep == 0)
      first = r;
    else
      EXPECT_EQ(first.events, r.events);
    EXPECT_NO_THROW(c.cross_check());
    c.stop();
  }
  EXPECT_TRUE(prints[0] == prints[1]) << "same seed must replay exactly";
}

TEST(ClusterTraffic, SkewedRegionsAndFaultsKeepConservation) {
  cl::Cluster c(small_config());
  sim::ClusterTrafficConfig cfg = traffic_config(23);
  cfg.shard_weights = {4.0, 2.0, 1.0, 1.0};  // regional port skew
  const auto r = sim::run_cluster_traffic(c, cfg);
  EXPECT_TRUE(r.functional_ok);
  EXPECT_GT(r.functional_checks, 0u);
  EXPECT_TRUE(r.stats.consistent());
  EXPECT_EQ(r.interrupted, r.reopened + r.lost)
      << "every fault-interrupted conference is re-admitted or lost";
  EXPECT_GE(r.stats.trunk_failures, r.stats.trunk_repairs);
  EXPECT_GE(r.stats.span_accepted, 1u);
  // The skewed region must see more offered intra traffic than the cold
  // ones combined would under uniform weights — sanity check the skew by
  // admission volume on shard 0.
  const auto snap = c.runtime_snapshot();
  EXPECT_GT(snap.shards[0].opens, snap.shards[3].opens);
  EXPECT_NO_THROW(c.cross_check());
  c.stop();
}

TEST(ClusterTraffic, RepairGatedRetryQueueKeepsConservation) {
  cl::Cluster c(small_config());
  sim::ClusterTrafficConfig cfg = traffic_config(31);
  cfg.retry_on_repair = true;  // park victims until the repair fires
  const auto r = sim::run_cluster_traffic(c, cfg);
  EXPECT_TRUE(r.functional_ok);
  EXPECT_TRUE(r.stats.consistent());
  EXPECT_GT(r.interrupted, 0u) << "the fault rates must produce victims";
  EXPECT_EQ(r.interrupted, r.reopened + r.lost)
      << "parked victims must resolve to reopened or lost, never vanish";
  EXPECT_NO_THROW(c.cross_check());
  c.stop();

  // Determinism holds in the parked mode too.
  cl::Cluster c2(small_config());
  const auto r2 = sim::run_cluster_traffic(c2, cfg);
  EXPECT_EQ(r.events, r2.events);
  EXPECT_EQ(r.reopened, r2.reopened);
  EXPECT_EQ(r.lost, r2.lost);
  c2.stop();
}

}  // namespace
