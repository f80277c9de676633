// Equivalence suite for the hot-path optimizations: the allocation-free
// multiplicity kernel, the incremental FabricState, and the parallel
// Monte-Carlo fan-out must each be indistinguishable from the reference
// implementations they replaced — bit-identical counts, identical delivered
// member sets, byte-identical statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/conference/multiplicity.hpp"
#include "analysis/util/thread_pool.hpp"
#include "conference/designs.hpp"
#include "conference/placement.hpp"
#include "min/network.hpp"
#include "sim/teletraffic.hpp"
#include "switchmod/fabric.hpp"
#include "switchmod/fabric_state.hpp"
#include "util/rng.hpp"

namespace confnet {
namespace {

using conf::u32;
using conf::u64;
using min::Kind;

/// Random disjoint conference set: repeatedly carve random groups out of
/// the unplaced ports until `count` conferences exist or placement fails.
conf::ConferenceSet random_set(util::Rng& rng, u32 n, u32 count) {
  const u32 N = u32{1} << n;
  conf::ConferenceSet set(N);
  conf::PortPlacer placer(n, conf::PlacementPolicy::kRandom);
  for (u32 id = 0; id < count; ++id) {
    const u32 size = 2 + static_cast<u32>(rng.below(5));
    auto ports = placer.place(size, rng);
    if (!ports) break;
    set.add(conf::Conference(id, std::move(*ports)));
  }
  return set;
}

class EquivalenceSuite : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  util::Rng rng_{GetParam()};
};

// --- (a) Allocation-free kernel vs row-vector reference ------------------

TEST_P(EquivalenceSuite, FastKernelMatchesReference) {
  for (Kind kind : min::kAllKinds) {
    for (u32 n = 3; n <= 8; ++n) {
      conf::MultiplicityScratch scratch;  // reused across trials on purpose
      for (int trial = 0; trial < 4; ++trial) {
        const auto set = random_set(rng_, n, 1 + (u32{1} << n) / 4);
        const auto ref = conf::measure_multiplicity_reference(kind, n, set);
        const auto fast = conf::measure_multiplicity(kind, n, set);
        const auto scratched =
            conf::measure_multiplicity(kind, n, set, scratch);
        EXPECT_EQ(ref.per_level, fast.per_level)
            << min::kind_name(kind) << " n=" << n;
        EXPECT_EQ(ref.peak, fast.peak);
        EXPECT_EQ(ref.per_level, scratched.per_level);
        EXPECT_EQ(ref.peak, scratched.peak);
      }
    }
  }
}

// --- (b) Incremental FabricState vs stateless Fabric::evaluate -----------

TEST_P(EquivalenceSuite, FabricStateMatchesStatelessOracle) {
  const Kind kind = min::kAllKinds[rng_.below(min::kAllKinds.size())];
  const u32 n = 3 + static_cast<u32>(rng_.below(3));
  const u32 N = u32{1} << n;
  const min::Network net(kind, n);
  sw::FabricState state(net, std::vector<u32>(n + 1, N));

  conf::PortPlacer placer(n, conf::PlacementPolicy::kRandom);
  std::vector<u32> alive;
  u32 next_id = 0;
  const auto place = [&] {
    return placer.place(2 + static_cast<u32>(rng_.below(5)), rng_);
  };

  for (int step = 0; step < 60; ++step) {
    const u32 action = static_cast<u32>(rng_.below(3));
    if (action == 0 || alive.empty()) {
      if (auto ports = place()) {
        ASSERT_EQ(state.try_add(next_id, *ports), sw::Admission::kAdmitted);
        alive.push_back(next_id++);
      }
    } else if (action == 1) {
      const std::size_t idx = rng_.below(alive.size());
      const u32 id = alive[idx];
      // Re-roll the group's ports: free them first, then replace (or drop
      // the group entirely if no placement fits anymore).
      placer.release(state.members(id));
      if (auto ports = place()) {
        ASSERT_EQ(state.try_replace(id, *ports), sw::Admission::kAdmitted);
      } else {
        state.remove(id);
        alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(idx));
      }
    } else {
      const std::size_t idx = rng_.below(alive.size());
      const u32 id = alive[idx];
      placer.release(state.members(id));
      state.remove(id);
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    // The oracle comparison: throws audit::AuditError on any divergence.
    ASSERT_NO_THROW(state.cross_check());
    EXPECT_TRUE(state.delivery_ok());
  }
}

// --- (c) Parallel Monte-Carlo vs serial reference ------------------------

TEST_P(EquivalenceSuite, ParallelMonteCarloByteIdentical) {
  util::ThreadPool pool(4);  // real concurrency even on 1-core CI
  for (Kind kind : {Kind::kOmega, Kind::kBaseline, Kind::kIndirectCube}) {
    for (conf::PlacementPolicy policy :
         {conf::PlacementPolicy::kRandom, conf::PlacementPolicy::kBuddy}) {
      const u32 n = 5;
      const u32 g = 6;
      const u32 trials = 37;  // deliberately not a multiple of the chunking
      const u64 seed = GetParam();
      const auto par = conf::monte_carlo_multiplicity(kind, n, g, 2, 6,
                                                      policy, trials, seed,
                                                      &pool);
      const auto ref = conf::monte_carlo_multiplicity_reference(
          kind, n, g, 2, 6, policy, trials, seed);
      // Byte-identical statistics: the Welford accumulator was replayed in
      // trial order, so even floating point must match exactly.
      EXPECT_EQ(par.peak.count(), ref.peak.count());
      EXPECT_EQ(par.peak.mean(), ref.peak.mean());
      EXPECT_EQ(par.peak.variance(), ref.peak.variance());
      EXPECT_EQ(par.peak.min(), ref.peak.min());
      EXPECT_EQ(par.peak.max(), ref.peak.max());
      EXPECT_EQ(par.peak_histogram, ref.peak_histogram);
      EXPECT_EQ(par.max_peak, ref.max_peak);
      EXPECT_EQ(par.placement_failures, ref.placement_failures);
    }
  }
}

// --- (d) Incremental verification inside the teletraffic driver ----------

/// Decorator whose verify_delivery() runs both delivery engines — the
/// incremental FabricState and the stateless Fabric::evaluate oracle — and
/// records whether they agreed. Every other call forwards unchanged, so the
/// driver's trajectory is the undecorated one (the run is fault-free, so
/// the fault interface keeps its base-class defaults).
class BothEnginesNetwork final : public conf::ConferenceNetworkBase {
 public:
  explicit BothEnginesNetwork(std::unique_ptr<conf::ConferenceNetworkBase> inner)
      : inner_(std::move(inner)) {}

  u64 checkpoints() const noexcept { return checkpoints_; }
  u64 disagreements() const noexcept { return disagreements_; }

  u32 n() const noexcept override { return inner_->n(); }
  std::string name() const override { return inner_->name(); }
  std::optional<u32> setup(const std::vector<u32>& members) override {
    return inner_->setup(members);
  }
  conf::SetupError last_error() const noexcept override {
    return inner_->last_error();
  }
  void teardown(u32 handle) override { inner_->teardown(handle); }
  u32 active_count() const noexcept override { return inner_->active_count(); }
  bool verify_delivery() const override {
    const bool incremental = inner_->verify_delivery();
    ++checkpoints_;
    if (incremental != inner_->verify_delivery_reference()) ++disagreements_;
    return incremental;
  }
  bool verify_delivery_reference() const override {
    return inner_->verify_delivery_reference();
  }
  u32 stages_for(u32 handle) const override {
    return inner_->stages_for(handle);
  }
  bool add_member(u32 handle, u32 port) override {
    return inner_->add_member(handle, port);
  }
  bool remove_member(u32 handle, u32 port) override {
    return inner_->remove_member(handle, port);
  }
  const std::vector<u32>& members_for(u32 handle) const override {
    return inner_->members_for(handle);
  }
  Kind kind() const noexcept override { return inner_->kind(); }
  u32 narrowest_channels() const noexcept override {
    return inner_->narrowest_channels();
  }

 private:
  std::unique_ptr<conf::ConferenceNetworkBase> inner_;
  mutable u64 checkpoints_ = 0;
  mutable u64 disagreements_ = 0;
};

TEST_P(EquivalenceSuite, TeletrafficVerifyPathsAgree) {
  sim::TeletrafficConfig cfg;
  cfg.traffic.arrival_rate = 2.0;
  cfg.traffic.mean_holding = 1.5;
  cfg.traffic.min_size = 2;
  cfg.traffic.max_size = 8;
  cfg.duration = 120.0;
  cfg.warmup = 20.0;
  cfg.seed = GetParam();
  cfg.membership_churn = true;
  cfg.verify_functional = true;
  cfg.verify_interval = 5.0;

  const auto run_both = [&](auto make_net) {
    BothEnginesNetwork both(make_net());
    auto plain_net = make_net();
    const auto checked = sim::run_teletraffic(both, cfg);
    const auto plain = sim::run_teletraffic(*plain_net, cfg);
    EXPECT_GT(both.checkpoints(), 0u);
    EXPECT_EQ(both.checkpoints(), checked.functional_checks);
    EXPECT_EQ(both.disagreements(), 0u)
        << "incremental and stateless delivery engines disagreed";
    EXPECT_TRUE(checked.functional_ok);
    // Verification is observation-only, so the trajectories are identical.
    EXPECT_EQ(checked.functional_checks, plain.functional_checks);
    EXPECT_EQ(checked.events, plain.events);
    EXPECT_EQ(checked.blocking_probability, plain.blocking_probability);
    EXPECT_EQ(checked.joins, plain.joins);
    EXPECT_EQ(checked.leaves, plain.leaves);
  };

  run_both([]() -> std::unique_ptr<conf::ConferenceNetworkBase> {
    return std::make_unique<conf::DirectConferenceNetwork>(
        Kind::kOmega, 5, conf::DilationProfile::full(5));
  });
  run_both([]() -> std::unique_ptr<conf::ConferenceNetworkBase> {
    return std::make_unique<conf::EnhancedCubeNetwork>(5);
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceSuite,
                         ::testing::Values(1u, 2u, 3u, 17u, 1234u));

}  // namespace
}  // namespace confnet
