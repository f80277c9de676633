// Heap-allocation budgets of the admission path, counted through replaced
// global allocation functions (the pattern of util_trace_test.cpp).
//
// A realization keeps its link rows in one flat block (min::LevelLinks),
// so an ALL_PAIRS subnetwork costs a parts scratch plus its result
// whatever n is, and a design setup adds only the sorted member copy. The
// budgets are steady-state figures: each design is warmed first, so its
// slot, id and handle tables already hold the capacity they need.
//
// Construction budgets pin what building an object costs: a network and
// its channel tables are inline, so a fabric allocates only its link
// loads, busy-port bitset and fault mask, and a first-fit placer builds no
// buddy allocator.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "conference/designs.hpp"
#include "conference/port_index.hpp"
#include "conference/subnetwork.hpp"
#include "runtime/runtime.hpp"
#include "util/audit.hpp"

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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
  // fabric's slot vector, id table and live-id list and the handle pool
  // hold their capacity.
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
  EXPECT_LE(allocations_in([&] { handle = net.setup(members); }), 3u);
  ASSERT_TRUE(handle.has_value());
  bool ok = false;
  EXPECT_LE(allocations_in([&] { ok = net.add_member(*handle, 11); }), 3u);
  EXPECT_TRUE(ok);
  EXPECT_LE(allocations_in([&] { ok = net.remove_member(*handle, 11); }), 3u);
  EXPECT_TRUE(ok);
  EXPECT_EQ(allocations_in([&] { net.teardown(*handle); }), 0u);
  EXPECT_EQ(net.active_count(), 0u);
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

TEST(ConstructionBudget, DirectFabricKeepsThreeTables) {
  if (audit::kEnabled)
    GTEST_SKIP() << "CONFNET_AUDIT hooks allocate on every mutation";
  std::optional<DirectConferenceNetwork> net;
  EXPECT_LE(allocations_in([&] {
              net.emplace(Kind::kIndirectCube, 10,
                          DilationProfile::uniform(10, 4));
            }),
            3u);
  EXPECT_EQ(net->size(), 1024u);
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
  EXPECT_LE(allocations_in([&] { rt.emplace(config); }), 50u);
  EXPECT_EQ(rt->shard(3).ports(), 256u);
}

INSTANTIATE_TEST_SUITE_P(N, AllocBudget, ::testing::Values(8u, 10u),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace confnet::conf
