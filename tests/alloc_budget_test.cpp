// Heap-allocation budgets of the admission path, counted through replaced
// global allocation functions (the pattern of util_trace_test.cpp).
//
// A realization keeps its link rows in one flat block (min::LevelLinks),
// so an ALL_PAIRS subnetwork costs a parts scratch plus its result
// whatever n is. The fabric stores no rows: it derives them into reused
// scratch, and an admitted group costs one block, its stored member list.
// The budgets are steady-state figures: each design is warmed first, so
// its entry, handle and scratch buffers already hold the capacity they
// need. The churn budgets also pin the live heap each open conference
// costs (usable bytes of every operator-new block).
//
// The DES budgets run the teletraffic driver end to end: its agenda holds
// plain events in one growing heap, so what a run allocates beyond that
// heap's growth is the member lists the fabric stores.
//
// Construction budgets pin what building an object costs: a network and
// its channel tables are inline, so a fabric on a kind with orthogonal
// windows allocates only its busy-port bitset and port-cover table (its link
// loads and fault mask wait for their first use, and buddy churn never
// brings the loads), a first-fit placer builds no region book, and a
// runtime's command rings and burst buffers start small and grow only
// under load.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "conference/designs.hpp"
#include "conference/port_index.hpp"
#include "conference/session.hpp"
#include "conference/subnetwork.hpp"
#include "runtime/runtime.hpp"
#include "sim/teletraffic.hpp"
#include "util/audit.hpp"

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_allocs{0};
// Usable bytes of every live operator-new block, counted always.
std::atomic<long long> g_live_bytes{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    g_live_bytes.fetch_add(static_cast<long long>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<long long>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace confnet::conf {
namespace {

using min::Kind;

/// Heap allocations made while `fn` runs.
template <typename Fn>
std::size_t allocations_in(Fn&& fn) {
  g_allocs.store(0);
  g_count_allocs.store(true);
  fn();
  g_count_allocs.store(false);
  return g_allocs.load();
}

class AllocBudget : public ::testing::TestWithParam<u32> {};

TEST_P(AllocBudget, AllPairsLinksMakesAtMostTwo) {
  const u32 n = GetParam();
  const u32 N = u32{1} << n;
  const std::vector<std::vector<u32>> member_sets{
      {0, 1, 2}, {3, N / 2, N - 1}, {1, 5, 9, 17, 33, 65, N - 2}};
  for (Kind kind : min::kAllKinds) {
    for (const auto& members : member_sets) {
      decltype(all_pairs_links(kind, n, members)) links;
      EXPECT_LE(allocations_in(
                    [&] { links = all_pairs_links(kind, n, members); }),
                2u)
          << min::kind_name(kind) << " |G|=" << members.size();
      EXPECT_NE(links, decltype(links){});
    }
  }
}

TEST_P(AllocBudget, DirectDesignSteadyState) {
  if (audit::kEnabled)
    GTEST_SKIP() << "CONFNET_AUDIT hooks allocate on every mutation";
  const u32 n = GetParam();
  DirectConferenceNetwork net(Kind::kOmega, n, DilationProfile::full(n));

  // Warm-up: admit, grow, shrink and release a few conferences so the
  // fabric's entry table, the design's scratch and the handle pool hold
  // their capacity.
  std::vector<u32> handles;
  for (u32 i = 0; i < 8; ++i) {
    const auto h = net.setup({4 * i, 4 * i + 1, 4 * i + 2});
    ASSERT_TRUE(h.has_value());
    ASSERT_TRUE(net.add_member(*h, 4 * i + 3));
    ASSERT_TRUE(net.remove_member(*h, 4 * i + 3));
    handles.push_back(*h);
  }
  for (u32 h : handles) net.teardown(h);

  const std::vector<u32> members{8, 9, 10};
  std::optional<u32> handle;
  EXPECT_LE(allocations_in([&] { handle = net.setup(members); }), 1u);
  ASSERT_TRUE(handle.has_value());
  bool ok = false;
  EXPECT_LE(allocations_in([&] { ok = net.add_member(*handle, 11); }), 1u);
  EXPECT_TRUE(ok);
  EXPECT_EQ(allocations_in([&] { ok = net.remove_member(*handle, 11); }), 0u);
  EXPECT_TRUE(ok);
  EXPECT_EQ(allocations_in([&] { net.teardown(*handle); }), 0u);
  EXPECT_EQ(net.active_count(), 0u);
}

/// What steady-state SessionManager churn costs: the most allocations any
/// accepted open made (and any open admitted only after a re-placement),
/// the total over refused opens and over closes, and the live heap per open
/// conference.
struct ChurnFigures {
  std::size_t accepted = 0;
  std::size_t repacked = 0;
  std::size_t shared = 0;  // accepted on a shared region
  std::size_t refused = 0;
  std::size_t refused_link = 0;   // refused by the fabric after the repack
  std::size_t refused_fault = 0;  // ... of which by a dead link first
  std::size_t closes = 0;
  std::size_t max_allocs_accepted = 0;
  std::size_t max_allocs_repacked = 0;
  std::size_t max_allocs_shared = 0;
  std::size_t allocs_refused = 0;
  std::size_t allocs_close = 0;
  double heap_per_conference = 0.0;
};

/// The fabric a churn runs on: an indirect cube of uniform dilation, with
/// one interstage link dead from the start when `dead_link` is set.
struct ChurnFabric {
  u32 dilation = 4;
  bool dead_link = false;
};

/// One shard's conference churn, as a closed-loop client drives it: keep
/// `target` conferences open, closing the oldest when full or after a
/// refused open, each open of a uniform size in [min_size, max_size]. The
/// first `warmup` steps fill every table and scratch buffer to its steady
/// capacity; the next `steps` are counted. Heap per conference is all the
/// heap the design and the manager hold at the end, fixed fabric tables
/// included, divided by the conferences then open.
ChurnFigures session_churn(u32 n, PlacementPolicy policy, u32 min_size,
                           u32 max_size, u32 target, u32 warmup, u32 steps,
                           ChurnFabric fabric = {}) {
  ChurnFigures f;
  std::vector<u32> live;
  live.reserve(target + 1);
  const long long base = g_live_bytes.load();
  {
    DirectConferenceNetwork net(Kind::kIndirectCube, n,
                                DilationProfile::uniform(n, fabric.dilation));
    if (fabric.dead_link) (void)net.fail_link(n / 2, 0);
    SessionManager manager(net, policy);
    util::Rng rng(7);
    bool refused = false;
    for (u32 step = 0; step < warmup + steps; ++step) {
      const bool counted = step >= warmup;
      if (!live.empty() && (live.size() >= target || refused)) {
        refused = false;
        const u32 oldest = live.front();
        live.erase(live.begin());
        const std::size_t allocs =
            allocations_in([&] { manager.close(oldest); });
        if (counted) {
          ++f.closes;
          f.allocs_close += allocs;
        }
        continue;
      }
      const u32 size =
          min_size + static_cast<u32>(rng.below(max_size - min_size + 1));
      const u64 repacked_before = manager.stats().repacked;
      const u64 shared_before = manager.stats().shared;
      std::pair<OpenResult, std::optional<u32>> r;
      const std::size_t allocs =
          allocations_in([&] { r = manager.open(size, rng); });
      refused = r.first != OpenResult::kAccepted;
      if (!refused) live.push_back(*r.second);
      if (!counted) continue;
      if (refused) {
        ++f.refused;
        f.refused_link += r.first != OpenResult::kBlockedPlacement ? 1 : 0;
        f.refused_fault += r.first == OpenResult::kBlockedFault ? 1 : 0;
        f.allocs_refused += allocs;
      } else {
        ++f.accepted;
        f.max_allocs_accepted = std::max(f.max_allocs_accepted, allocs);
        if (manager.stats().repacked != repacked_before) {
          ++f.repacked;
          f.max_allocs_repacked = std::max(f.max_allocs_repacked, allocs);
        }
        if (manager.stats().shared != shared_before) {
          ++f.shared;
          f.max_allocs_shared = std::max(f.max_allocs_shared, allocs);
        }
      }
    }
    f.heap_per_conference = static_cast<double>(g_live_bytes.load() - base) /
                            static_cast<double>(live.size());
  }
  return f;
}

TEST(SessionChurnBudget, FirstFitAtEightStages) {
  if (audit::kEnabled)
    GTEST_SKIP() << "CONFNET_AUDIT hooks allocate on every mutation";
  const ChurnFigures f =
      session_churn(8, PlacementPolicy::kFirstFit, 2, 4, 64, 4000, 4000);
  ASSERT_GT(f.accepted, 1000u);
  EXPECT_LE(f.max_allocs_accepted, 1u);
  EXPECT_EQ(f.allocs_close, 0u);
  // 155.9 B measured (Release, glibc; 158.7 B while capacity refused
  // opens here); the bound allows 5% over the earlier figure.
  EXPECT_LE(f.heap_per_conference, 167.0);
  // At dilation 4 every refused window now finds another, so no open is
  // refused here; RepackAllocatesOnlyTheAdmittedMembers counts refused
  // opens on the same churn at dilation 1, which still refuses.
  EXPECT_EQ(f.refused, 0u);
}

TEST(SessionChurnBudget, RepackAllocatesOnlyTheAdmittedMembers) {
  if (audit::kEnabled)
    GTEST_SKIP() << "CONFNET_AUDIT hooks allocate on every mutation";
  // Link capacity: most opens are re-placed, and some still refuse after
  // every attempt. Once warm, a re-placed open costs its stored member
  // list and a refused one costs nothing.
  const ChurnFigures capacity = session_churn(
      8, PlacementPolicy::kFirstFit, 2, 4, 64, 4000, 4000, {.dilation = 1});
  ASSERT_GT(capacity.repacked, 1000u);
  ASSERT_GT(capacity.refused, 50u);
  ASSERT_GT(capacity.refused_link, 50u);
  EXPECT_LE(capacity.max_allocs_repacked, 1u);
  EXPECT_EQ(capacity.allocs_refused, 0u);
  // A dead link: first-fit's first window crosses it on every open, so
  // every admission is a re-placement, and near full some opens run out
  // of windows and are refused as faulted.
  const ChurnFigures fault = session_churn(
      8, PlacementPolicy::kFirstFit, 2, 4, 80, 4000, 4000,
      {.dilation = 4, .dead_link = true});
  ASSERT_GT(fault.repacked, 1000u);
  ASSERT_GT(fault.refused_fault, 10u);
  EXPECT_LE(fault.max_allocs_repacked, 1u);
  EXPECT_EQ(fault.allocs_refused, 0u);
  // Conferences beyond repack()'s frame stack their windows in the
  // manager's scratch, which the warm-up has grown.
  const ChurnFigures large = session_churn(
      8, PlacementPolicy::kFirstFit, 17, 24, 10, 2000, 2000, {.dilation = 1});
  ASSERT_GT(large.repacked, 100u);
  ASSERT_GT(large.refused_link, 50u);
  EXPECT_LE(large.max_allocs_repacked, 1u);
  EXPECT_EQ(large.allocs_refused, 0u);
}

TEST(SessionChurnBudget, BuddyAtTenStages) {
  if (audit::kEnabled)
    GTEST_SKIP() << "CONFNET_AUDIT hooks allocate on every mutation";
  const ChurnFigures f =
      session_churn(10, PlacementPolicy::kBuddy, 2, 16, 128, 4000, 4000);
  ASSERT_GT(f.accepted, 1000u);
  ASSERT_GT(f.refused, 50u);
  EXPECT_LE(f.max_allocs_accepted, 1u);
  EXPECT_EQ(f.allocs_refused, 0u);
  EXPECT_EQ(f.allocs_close, 0u);
  // 104.5 B measured (Release, glibc; 333.1 B while every fabric held a
  // load table and a fault mask); the bound allows 5% more.
  EXPECT_LE(f.heap_per_conference, 110.0);
}

TEST(SessionChurnBudget, SharedOpensAllocateOnlyTheirMembers) {
  if (audit::kEnabled)
    GTEST_SKIP() << "CONFNET_AUDIT hooks allocate on every mutation";
  // Buddy churn at dilation 4 past its aligned blocks: opens take the
  // shared step, and the four channels admit them. Once warm, a shared
  // open costs its stored member list and a close nothing: the shared
  // search, the region book and the fabric's port cover allocate nothing.
  const ChurnFigures f =
      session_churn(10, PlacementPolicy::kBuddy, 2, 16, 96, 4000, 4000);
  ASSERT_GT(f.shared, 100u);
  EXPECT_LE(f.max_allocs_shared, 1u);
  EXPECT_EQ(f.allocs_refused, 0u);
  EXPECT_EQ(f.allocs_close, 0u);
}

TEST(RuntimeChurnBudget, FourShardsCallPooled) {
  if (audit::kEnabled)
    GTEST_SKIP() << "CONFNET_AUDIT hooks allocate on every mutation";
  runtime::RuntimeConfig config;
  config.shards = 4;
  config.shard.stages = 8;
  config.shard.dilation = 4;
  config.shard.policy = PlacementPolicy::kFirstFit;
  config.shard.wait_capacity = 0;  // loss mode: a refusal is final
  config.shard.recovery.max_retries = 0;
  runtime::Runtime rt(config);
  rt.start();
  constexpr u32 kTarget = 300;
  std::vector<std::pair<u32, u32>> live;  // (shard, session), oldest first
  live.reserve(kTarget + 1);
  util::Rng rng(11);
  std::size_t served = 0, refused_n = 0, closes = 0;
  std::size_t max_served = 0, allocs_refused = 0, allocs_close = 0;
  bool refused = false;
  for (u32 step = 0; step < 12000; ++step) {
    const bool counted = step >= 6000;
    runtime::Command cmd;
    if (!live.empty() && (live.size() >= kTarget || refused)) {
      refused = false;
      const auto [shard, session] = live.front();
      live.erase(live.begin());
      cmd.kind = runtime::CommandKind::kClose;
      cmd.session = session;
      runtime::CommandResult r;
      const std::size_t allocs = allocations_in(
          [&] { r = rt.call_pooled(shard, std::move(cmd)).take(); });
      ASSERT_TRUE(r.ok);
      if (counted) {
        ++closes;
        allocs_close += allocs;
      }
      continue;
    }
    const auto shard = static_cast<u32>(rng.below(4));
    cmd.kind = runtime::CommandKind::kOpen;
    cmd.size = 2 + static_cast<u32>(rng.below(3));
    runtime::CommandResult r;
    const std::size_t allocs = allocations_in(
        [&] { r = rt.call_pooled(shard, std::move(cmd)).take(); });
    refused = r.open.outcome != conf::RequestOutcome::kServed;
    if (!refused) live.emplace_back(shard, *r.open.session);
    if (!counted) continue;
    if (refused) {
      ++refused_n;
      allocs_refused += allocs;
    } else {
      ++served;
      max_served = std::max(max_served, allocs);
    }
  }
  rt.stop();
  ASSERT_GT(served, 1000u);
  ASSERT_GT(refused_n, 50u);
  // The counter sees every thread, so a worker growing its command ring
  // or burst buffer inside a counted call would show here too.
  EXPECT_LE(max_served, 1u);
  EXPECT_EQ(allocs_refused, 0u);
  EXPECT_EQ(allocs_close, 0u);
}

/// The DES configuration of the e2ebench des_teletraffic workload: buddy
/// churn on one N = 1024 indirect cube of dilation 4, membership churn and
/// a delivery check every half unit. Warm-up only gates the statistics, so
/// with none the counts cover the whole run and the event stream is the
/// same.
sim::TeletrafficConfig des_budget_config() {
  sim::TeletrafficConfig cfg;
  cfg.traffic.arrival_rate = 40.0;
  cfg.traffic.mean_holding = 2.0;
  cfg.traffic.min_size = 2;
  cfg.traffic.max_size = 16;
  cfg.policy = PlacementPolicy::kBuddy;
  cfg.duration = 100.0;
  cfg.warmup = 0.0;
  cfg.seed = 7;
  cfg.verify_functional = true;
  cfg.verify_interval = 0.5;
  cfg.membership_churn = true;
  return cfg;
}

/// Allocations of one run_teletraffic on a fresh design, with its result.
std::size_t des_allocations(const sim::TeletrafficConfig& cfg,
                            sim::TeletrafficResult& result) {
  DirectConferenceNetwork net(Kind::kIndirectCube, 10,
                              DilationProfile::uniform(10, 4));
  return allocations_in([&] { result = sim::run_teletraffic(net, cfg); });
}

/// What a run may allocate besides member lists: the manager, the control
/// plane and the placer at construction, and the agenda heap's doublings.
constexpr std::size_t kDesFixedAllocs = 64;

TEST(DesBudget, AgendaAllocatesOnlyMemberLists) {
  if (audit::kEnabled)
    GTEST_SKIP() << "CONFNET_AUDIT hooks allocate on every mutation";
  sim::TeletrafficResult r;
  const std::size_t allocs = des_allocations(des_budget_config(), r);
  ASSERT_GT(r.stats.accepted, 3000u);
  ASSERT_GT(r.joins, 2000u);
  // Each accepted open stores one member list and each join may regrow
  // it; nothing else allocates per event. A queue of std::function
  // events allocated 44,529 times here (19,419 events).
  EXPECT_LE(allocs, r.stats.accepted + r.joins + kDesFixedAllocs)
      << r.events << " events";
}

TEST(DesBudget, TalkSpurtsAddOnlyTheirTableGrowth) {
  if (audit::kEnabled)
    GTEST_SKIP() << "CONFNET_AUDIT hooks allocate on every mutation";
  sim::TeletrafficConfig cfg = des_budget_config();
  cfg.talk_spurts = true;
  sim::TeletrafficResult r;
  const std::size_t allocs = des_allocations(cfg, r);
  ASSERT_GT(r.stats.accepted, 3000u);
  // The spurt table is indexed by session id and doubles as ids grow:
  // one allocation per doubling up to the last id. A shared state per
  // chain and a std::function per toggle allocated 197,194 times here
  // (93,277 events).
  std::size_t doublings = 0;
  for (std::uint64_t cap = 1; cap < r.stats.attempts; cap *= 2) ++doublings;
  EXPECT_LE(allocs,
            r.stats.accepted + r.joins + kDesFixedAllocs + doublings + 1)
      << r.events << " events";
}

TEST(ConstructionBudget, FirstFitPlacerBuildsNoBuddyTables) {
  if (audit::kEnabled)
    GTEST_SKIP() << "CONFNET_AUDIT hooks allocate on every mutation";
  std::optional<FastPortPlacer> placer;
  EXPECT_LE(allocations_in(
                [&] { placer.emplace(8, PlacementPolicy::kFirstFit); }),
            2u);
  EXPECT_EQ(placer->free_ports(), 256u);
}

TEST(ConstructionBudget, DirectFabricKeepsTwoPortBitsets) {
  if (audit::kEnabled)
    GTEST_SKIP() << "CONFNET_AUDIT hooks allocate on every mutation";
  std::optional<DirectConferenceNetwork> net;
  EXPECT_LE(allocations_in([&] {
              net.emplace(Kind::kIndirectCube, 10,
                          DilationProfile::uniform(10, 4));
            }),
            2u);
  EXPECT_EQ(net->size(), 1024u);
}

TEST(ConstructionBudget, BuddyChurnNeverAllocatesTheLoadTable) {
  if (audit::kEnabled)
    GTEST_SKIP() << "CONFNET_AUDIT hooks allocate on every mutation";
  // 2,000 buddy opens and closes on one N = 1024 indirect cube. R2 covers
  // every admission, so the fabric never allocates its 2·11·1024-byte load
  // table: the most heap the design and the manager ever hold stays below
  // that table alone.
  constexpr long long kLoadTableBytes = 2 * 11 * 1024;
  const long long base = g_live_bytes.load();
  long long peak = 0;
  {
    DirectConferenceNetwork net(Kind::kIndirectCube, 10,
                                DilationProfile::uniform(10, 4));
    SessionManager manager(net, PlacementPolicy::kBuddy);
    util::Rng rng(17);
    std::vector<u32> live;
    std::size_t accepted = 0;
    for (u32 step = 0; step < 2000; ++step) {
      if (live.size() >= 60 || (!live.empty() && rng.below(3) == 0)) {
        const auto at = live.begin() +
                        static_cast<std::ptrdiff_t>(rng.below(live.size()));
        manager.close(*at);
        live.erase(at);
      } else {
        const auto r = manager.open(2 + static_cast<u32>(rng.below(15)), rng);
        if (r.first == OpenResult::kAccepted) {
          live.push_back(*r.second);
          ++accepted;
        }
      }
      peak = std::max(peak, g_live_bytes.load() - base);
    }
    ASSERT_GT(accepted, 900u);
    EXPECT_EQ(manager.stats().blocked_capacity, 0u);
  }
  // 9,880 bytes measured (Release, glibc).
  EXPECT_LT(peak, kLoadTableBytes);
}

TEST(ConstructionBudget, FourShardRuntime) {
  if (audit::kEnabled)
    GTEST_SKIP() << "CONFNET_AUDIT hooks allocate on every mutation";
  runtime::RuntimeConfig config;
  config.shards = 4;
  config.shard.stages = 8;
  config.shard.policy = PlacementPolicy::kFirstFit;
  config.shard.queue_depth = 256;
  std::optional<runtime::Runtime> rt;
  const long long before = g_live_bytes.load();
  EXPECT_LE(allocations_in([&] { rt.emplace(config); }), 50u);
  // Four 256-port fabrics and control planes, and per shard a 16-slot
  // command ring and a 16-command burst buffer: 19,584 bytes measured
  // (Release, glibc), 4,560 bytes of margin. With each fabric's load table
  // and fault mask built at construction it held 44,592; with rings and
  // burst buffers sized to their bounds, 153,728 (four 256-slot rings alone
  // are ~98 KB).
  const long long held = g_live_bytes.load() - before;
  EXPECT_LE(held, 19584 + 4560);
  EXPECT_EQ(rt->shard(3).ports(), 256u);
}

INSTANTIATE_TEST_SUITE_P(N, AllocBudget, ::testing::Values(8u, 10u),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace confnet::conf
