// Signal-plane propagation engine vs the retained set-based reference:
// randomized equivalence across every available SIMD backend, member
// counts straddling the 64-bit word and 256-bit block boundaries, relay
// taps, faulted links, cached verdicts across a fault event, and a
// cross_check property test under churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "conference/multiplicity.hpp"
#include "conference/placement.hpp"
#include "conference/subnetwork.hpp"
#include "min/network.hpp"
#include "switchmod/fabric_state.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace confnet {
namespace {

namespace simd = util::simd;
using conf::u32;
using min::Kind;

class BackendGuard {
 public:
  BackendGuard() : saved_(simd::active_backend()) {}
  ~BackendGuard() { simd::force_backend(saved_); }

 private:
  simd::Backend saved_;
};

std::vector<simd::Backend> available_backends() {
  std::vector<simd::Backend> out;
  for (simd::Backend b : {simd::Backend::kScalar, simd::Backend::kAvx2,
                          simd::Backend::kNeon})
    if (simd::backend_available(b)) out.push_back(b);
  return out;
}

sw::GroupRealization all_pairs_group(Kind kind, u32 n, u32 id,
                                     std::vector<u32> members) {
  sw::GroupRealization g;
  g.id = id;
  g.links = conf::all_pairs_links(kind, n, members);
  g.members = std::move(members);
  return g;
}

/// Every live group's cached plane results must equal the set-based
/// reference: delivered sets, and delivery_ok must agree with the
/// reference-derived expectation.
void expect_plane_matches_reference(const sw::FabricState& state,
                                    const std::vector<u32>& ids) {
  bool ref_ok = true;
  for (u32 id : ids) {
    const sw::PropagationResult ref = state.propagate_reference(id);
    const std::vector<sw::MemberSet> fast = state.delivered(id);
    ASSERT_EQ(fast.size(), ref.delivered.size()) << "group " << id;
    for (std::size_t mi = 0; mi < fast.size(); ++mi)
      EXPECT_EQ(fast[mi].values(), ref.delivered[mi].values())
          << "group " << id << " output " << mi << " backend "
          << simd::active_backend_name();
    if (ref.capability_violations != 0) ref_ok = false;
    for (std::size_t mi = 0; mi < ref.delivered.size(); ++mi)
      if (ref.delivered[mi].values() != state.group(id).members)
        ref_ok = false;
  }
  EXPECT_EQ(state.delivery_ok(), ref_ok);
}

class SignalPlaneSuite : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  util::Rng rng_{GetParam()};
};

// --- Randomized churn equivalence, every topology, every backend ---------

TEST_P(SignalPlaneSuite, PropagateMatchesReferenceAcrossBackends) {
  BackendGuard guard;
  for (Kind kind : min::kAllKinds) {
    const u32 n = 4 + static_cast<u32>(rng_.below(2));
    const u32 N = u32{1} << n;
    const min::Network net = min::make_network(kind, n);
    sw::FabricState state(net, sw::FabricConfig{N, true, true});
    conf::PortPlacer placer(n, conf::PlacementPolicy::kRandom);

    std::vector<u32> alive;
    for (u32 id = 0; id < N / 3; ++id) {
      const u32 size = 2 + static_cast<u32>(rng_.below(6));
      auto ports = placer.place(size, rng_);
      if (!ports) break;
      ASSERT_TRUE(
          state.try_add(all_pairs_group(kind, n, id, std::move(*ports))));
      alive.push_back(id);
    }
    ASSERT_FALSE(alive.empty());

    for (simd::Backend b : available_backends()) {
      ASSERT_TRUE(simd::force_backend(b));
      state.invalidate_signal_caches();
      expect_plane_matches_reference(state, alive);
      EXPECT_TRUE(state.delivery_ok()) << min::kind_name(kind);
    }
  }
}

// --- Member counts straddling the word and block boundaries --------------

TEST_P(SignalPlaneSuite, LaneBoundaryMemberCounts) {
  BackendGuard guard;
  const Kind kind = Kind::kOmega;
  // 63/64/65 straddle one 64-bit word; 255/256/257 straddle the 256-bit
  // SIMD block (257 members needs a 512-port network).
  const struct {
    u32 n;
    u32 size;
  } cases[] = {{7, 63}, {7, 64}, {7, 65}, {9, 255}, {9, 256}, {9, 257}};
  for (const auto& c : cases) {
    const u32 N = u32{1} << c.n;
    const min::Network net = min::make_network(kind, c.n);
    sw::FabricState state(net, sw::FabricConfig{N, true, true});
    // A random member subset of the requested size (sorted by placer-free
    // construction: pick distinct ports via a shuffled identity prefix).
    std::vector<u32> ports(N);
    for (u32 p = 0; p < N; ++p) ports[p] = p;
    for (u32 p = N - 1; p > 0; --p)
      std::swap(ports[p], ports[rng_.below(p + 1)]);
    std::vector<u32> members(ports.begin(), ports.begin() + c.size);
    std::sort(members.begin(), members.end());
    ASSERT_TRUE(state.try_add(all_pairs_group(kind, c.n, 0, members)));

    for (simd::Backend b : available_backends()) {
      ASSERT_TRUE(simd::force_backend(b));
      state.invalidate_signal_caches();
      expect_plane_matches_reference(state, {0});
      EXPECT_TRUE(state.delivery_ok())
          << "n=" << c.n << " size=" << c.size << " backend "
          << simd::backend_name(b);
    }
  }
}

// --- Relay taps (enhanced cube realization) ------------------------------

TEST_P(SignalPlaneSuite, TappedRealizationsMatchReference) {
  BackendGuard guard;
  const u32 n = 5;
  const u32 N = u32{1} << n;
  const min::Network net = min::make_network(Kind::kIndirectCube, n);
  sw::FabricState state(net, sw::FabricConfig{N, true, true});
  conf::PortPlacer placer(n, conf::PlacementPolicy::kBuddy);

  std::vector<u32> alive;
  for (u32 id = 0; id < 6; ++id) {
    const u32 size = 2 + static_cast<u32>(rng_.below(5));
    auto ports = placer.place(size, rng_);
    if (!ports) break;
    const auto er = conf::enhanced_cube_realization(n, *ports);
    sw::GroupRealization g;
    g.id = id;
    g.members = std::move(*ports);
    g.links = er.links;
    for (u32 m : g.members)
      g.taps.push_back(sw::GroupRealization::Tap{m, er.tap_level});
    ASSERT_TRUE(state.try_add(std::move(g)));
    alive.push_back(id);
  }
  ASSERT_FALSE(alive.empty());

  for (simd::Backend b : available_backends()) {
    ASSERT_TRUE(simd::force_backend(b));
    state.invalidate_signal_caches();
    expect_plane_matches_reference(state, alive);
    EXPECT_TRUE(state.delivery_ok());
  }
}

// --- Faulted links -------------------------------------------------------

TEST_P(SignalPlaneSuite, FaultedLinksMatchReference) {
  BackendGuard guard;
  const Kind kind = Kind::kBaseline;
  const u32 n = 5;
  const u32 N = u32{1} << n;
  const min::Network net = min::make_network(kind, n);
  sw::FabricState state(net, sw::FabricConfig{N, true, true});
  conf::PortPlacer placer(n, conf::PlacementPolicy::kRandom);

  std::vector<u32> alive;
  for (u32 id = 0; id < 8; ++id) {
    const u32 size = 2 + static_cast<u32>(rng_.below(5));
    auto ports = placer.place(size, rng_);
    if (!ports) break;
    ASSERT_TRUE(
        state.try_add(all_pairs_group(kind, n, id, std::move(*ports))));
    alive.push_back(id);
  }
  ASSERT_FALSE(alive.empty());

  // Kill a member's injection link: its group must lose delivery, and the
  // plane engine must agree with the reference on the degraded signals.
  const u32 victim = alive[rng_.below(alive.size())];
  const u32 dead_port = state.group(victim).members.front();
  EXPECT_FALSE(state.fail_link(0, dead_port).empty());
  for (simd::Backend b : available_backends()) {
    ASSERT_TRUE(simd::force_backend(b));
    state.invalidate_signal_caches();
    expect_plane_matches_reference(state, alive);
    EXPECT_FALSE(state.delivery_ok());
  }

  // A few random interstage faults on top, then repair everything: the
  // healthy fabric delivers again on every backend.
  for (int i = 0; i < 4; ++i)
    (void)state.fail_link(1 + static_cast<u32>(rng_.below(n - 1)),
                          static_cast<u32>(rng_.below(N)));
  for (simd::Backend b : available_backends()) {
    ASSERT_TRUE(simd::force_backend(b));
    state.invalidate_signal_caches();
    expect_plane_matches_reference(state, alive);
  }
  for (u32 level = 0; level <= n; ++level)
    for (u32 row = 0; row < N; ++row)
      if (state.link_faulty(level, row)) (void)state.repair_link(level, row);
  for (simd::Backend b : available_backends()) {
    ASSERT_TRUE(simd::force_backend(b));
    state.invalidate_signal_caches();
    expect_plane_matches_reference(state, alive);
    EXPECT_TRUE(state.delivery_ok());
  }
}

// --- Cached verdicts follow fault events ---------------------------------

// delivery_ok() answers from per-group cached verdicts. Failing a link a
// clean group uses must invalidate that group's verdict: the next
// delivery_ok() sees the broken delivery, delivered() agrees with the
// reference, and cross_check() (which compares the cached verdict too)
// passes.
TEST_P(SignalPlaneSuite, FailedLinkInvalidatesCachedVerdict) {
  BackendGuard guard;
  const u32 n = 5;
  const u32 N = u32{1} << n;
  for (simd::Backend b : available_backends()) {
    ASSERT_TRUE(simd::force_backend(b));
    const Kind kind = min::kAllKinds[rng_.below(min::kAllKinds.size())];
    const min::Network net = min::make_network(kind, n);
    sw::FabricState state(net, sw::FabricConfig{N, true, true});
    conf::PortPlacer placer(n, conf::PlacementPolicy::kRandom);

    std::vector<u32> alive;
    for (u32 id = 0; id < 6; ++id) {
      const u32 size = 2 + static_cast<u32>(rng_.below(5));
      auto ports = placer.place(size, rng_);
      if (!ports) break;
      ASSERT_TRUE(
          state.try_add(all_pairs_group(kind, n, id, std::move(*ports))));
      alive.push_back(id);
    }
    ASSERT_FALSE(alive.empty());
    ASSERT_TRUE(state.delivery_ok());  // every verdict is now cached

    // Banyan paths are unique, so losing any link of an all-pairs
    // realization cuts some member pair of that group.
    const u32 victim = alive[rng_.below(alive.size())];
    const u32 level = static_cast<u32>(rng_.below(n + 1));
    const auto& rows = state.group(victim).links[level];
    const u32 row = rows[rng_.below(rows.size())];
    const auto& touched = state.fail_link(level, row);
    EXPECT_TRUE(std::find(touched.begin(), touched.end(), victim) !=
                touched.end());

    // The first delivery_ok() after the fault must not answer from a
    // stale cached verdict.
    EXPECT_FALSE(state.delivery_ok())
        << min::kind_name(kind) << " link (" << level << ", " << row
        << ") backend " << simd::backend_name(b);
    expect_plane_matches_reference(state, alive);
    EXPECT_NO_THROW(state.cross_check());
  }
}

// --- cross_check property test under churn -------------------------------

TEST_P(SignalPlaneSuite, CrossCheckHoldsUnderChurnWithFaults) {
  const Kind kind = min::kAllKinds[rng_.below(min::kAllKinds.size())];
  const u32 n = 4;
  const u32 N = u32{1} << n;
  const min::Network net = min::make_network(kind, n);
  // Some seeds switch a fan capability off, so the capability-violation
  // counts are pinned against the reference too.
  const bool fan_in = GetParam() % 2 == 0;
  const bool fan_out = GetParam() % 3 != 0;
  sw::FabricState state(net, sw::FabricConfig{N, fan_in, fan_out});
  conf::PortPlacer placer(n, conf::PlacementPolicy::kRandom);

  std::vector<u32> alive;
  u32 next_id = 0;
  for (int step = 0; step < 50; ++step) {
    const u32 action = static_cast<u32>(rng_.below(4));
    if (action == 0 || alive.empty()) {
      const u32 size = 2 + static_cast<u32>(rng_.below(4));
      if (auto ports = placer.place(size, rng_)) {
        if (state.links_clear(conf::all_pairs_links(kind, n, *ports))) {
          ASSERT_TRUE(state.try_add(
              all_pairs_group(kind, n, next_id, std::move(*ports))));
          alive.push_back(next_id++);
        } else {
          placer.release(*ports);
        }
      }
    } else if (action == 1) {
      const std::size_t idx = rng_.below(alive.size());
      placer.release(state.group(alive[idx]).members);
      state.remove(alive[idx]);
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (action == 2) {
      (void)state.fail_link(static_cast<u32>(rng_.below(n + 1)),
                            static_cast<u32>(rng_.below(N)));
    } else {
      (void)state.repair_link(static_cast<u32>(rng_.below(n + 1)),
                              static_cast<u32>(rng_.below(N)));
    }
    // cross_check recounts everything through the stateless oracle AND
    // pins the plane engine against propagate_reference per group.
    ASSERT_NO_THROW(state.cross_check());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignalPlaneSuite,
                         ::testing::Values(1u, 2u, 3u, 17u, 1234u));

// --- Monte-Carlo delivery verification -----------------------------------

// The MC trial loop verifies delivery through the plane engine; the serial
// reference goes through the stateless set-based Fabric::evaluate. Both
// must see zero failures on a healthy fabric, and turning verification on
// must not perturb the multiplicity statistics (it consumes no RNG).
TEST(SignalPlaneMonteCarlo, VerifyDeliveryMatchesReferenceAndKeepsStats) {
  const u32 n = 4;
  const u32 trials = 40;
  for (Kind kind : {Kind::kOmega, Kind::kIndirectCube}) {
    const auto plain = conf::monte_carlo_multiplicity(
        kind, n, 3, 2, 6, conf::PlacementPolicy::kRandom, trials, 99);
    const auto fast = conf::monte_carlo_multiplicity(
        kind, n, 3, 2, 6, conf::PlacementPolicy::kRandom, trials, 99, nullptr,
        true);
    const auto ref = conf::monte_carlo_multiplicity_reference(
        kind, n, 3, 2, 6, conf::PlacementPolicy::kRandom, trials, 99, true);
    EXPECT_EQ(fast.delivery_failures, 0u);
    EXPECT_EQ(ref.delivery_failures, 0u);
    EXPECT_EQ(fast.peak_histogram, plain.peak_histogram);
    EXPECT_EQ(fast.peak_histogram, ref.peak_histogram);
    EXPECT_EQ(fast.max_peak, ref.max_peak);
    EXPECT_EQ(fast.placement_failures, ref.placement_failures);
    EXPECT_EQ(fast.peak.count(), ref.peak.count());
  }
}

}  // namespace
}  // namespace confnet
