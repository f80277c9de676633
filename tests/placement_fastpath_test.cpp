// Fast-path admission equivalence: the hierarchical-bitmap placer against
// the reference PortPlacer oracle (exact port sets under identical RNG
// streams), and the hold-queue watermark's bounded work.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "conference/port_index.hpp"
#include "conference/waitqueue.hpp"
#include "util/audit.hpp"
#include "util/error.hpp"

namespace confnet::conf {
namespace {

using min::Kind;

constexpr PlacementPolicy kPolicies[] = {
    PlacementPolicy::kBuddy, PlacementPolicy::kFirstFit,
    PlacementPolicy::kRandom};

// --- Placer twin: FastPortPlacer vs PortPlacer --------------------------

void insert_sorted(std::vector<u32>& v, u32 x) {
  v.insert(std::lower_bound(v.begin(), v.end(), x), x);
}

void placer_churn_twin(PlacementPolicy policy, u64 seed) {
  const u32 n = 6;
  const auto fast = make_placer(n, policy, PlacerBackend::kFast);
  const auto ref = make_placer(n, policy, PlacerBackend::kReference);
  util::Rng rng_fast(seed);
  util::Rng rng_ref(seed);
  util::Rng script(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<std::vector<u32>> live;
  for (int step = 0; step < 600; ++step) {
    const u64 action = script.below(10);
    if (action < 5 || live.empty()) {
      const u32 size = 2 + static_cast<u32>(script.below(15));
      const bool placeable = fast->placeable(size);
      ASSERT_EQ(placeable, ref->placeable(size));
      const auto pf = fast->place(size, rng_fast);
      const auto pr = ref->place(size, rng_ref);
      ASSERT_EQ(pf.has_value(), pr.has_value());
      ASSERT_EQ(pf.has_value(), placeable);  // the watermark is exact
      if (pf) {
        ASSERT_EQ(*pf, *pr);
        live.push_back(*pf);
      }
    } else if (action < 8) {
      const auto idx = static_cast<std::size_t>(script.below(live.size()));
      fast->release(live[idx]);
      ref->release(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (action == 8) {
      const auto idx = static_cast<std::size_t>(script.below(live.size()));
      const auto ef = fast->expand(live[idx], rng_fast);
      const auto er = ref->expand(live[idx], rng_ref);
      ASSERT_EQ(ef.has_value(), er.has_value());
      if (ef) {
        ASSERT_EQ(*ef, *er);
        insert_sorted(live[idx], *ef);
      }
    } else {
      const auto idx = static_cast<std::size_t>(script.below(live.size()));
      if (live[idx].size() > 2) {
        const auto pi =
            static_cast<std::size_t>(script.below(live[idx].size()));
        const u32 port = live[idx][pi];
        fast->release_one(port);
        ref->release_one(port);
        live[idx].erase(live[idx].begin() +
                        static_cast<std::ptrdiff_t>(pi));
      }
    }
    ASSERT_EQ(fast->free_ports(), ref->free_ports());
    for (u32 p = 0; p < (u32{1} << n); ++p)
      ASSERT_EQ(fast->occupied(p), ref->occupied(p)) << "port " << p;
    audit::check_placer(*fast);
    audit::check_placer(*ref);
  }
}

class PlacerEquivalence
    : public ::testing::TestWithParam<PlacementPolicy> {};

TEST_P(PlacerEquivalence, FastMatchesReferenceUnderChurn) {
  for (u64 seed = 1; seed <= 5; ++seed) placer_churn_twin(GetParam(), seed);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PlacerEquivalence,
                         ::testing::ValuesIn(kPolicies),
                         [](const auto& info) {
                           return std::string(
                               info.param == PlacementPolicy::kBuddy
                                   ? "buddy"
                                   : info.param == PlacementPolicy::kFirstFit
                                         ? "firstfit"
                                         : "random");
                         });

// --- Session-level twin over both designs with fault churn --------------

enum class Design { kDirect, kEnhanced };

void session_churn_twin(Design design, PlacementPolicy policy, u64 seed) {
  const u32 n = 4;
  const u32 N = u32{1} << n;
  std::optional<DirectConferenceNetwork> df, dr;
  std::optional<EnhancedCubeNetwork> ef, er;
  ConferenceNetworkBase* net_fast = nullptr;
  ConferenceNetworkBase* net_ref = nullptr;
  if (design == Design::kDirect) {
    df.emplace(Kind::kIndirectCube, n, DilationProfile::full(n));
    dr.emplace(Kind::kIndirectCube, n, DilationProfile::full(n));
    net_fast = &*df;
    net_ref = &*dr;
  } else {
    ef.emplace(n);
    er.emplace(n);
    net_fast = &*ef;
    net_ref = &*er;
  }
  SessionManager fast(*net_fast, policy, PlacerBackend::kFast);
  SessionManager ref(*net_ref, policy, PlacerBackend::kReference);
  util::Rng rng_fast(seed);
  util::Rng rng_ref(seed);
  util::Rng script(seed * 977 + 13);
  std::vector<u32> live;
  for (int step = 0; step < 300; ++step) {
    const u64 action = script.below(12);
    if (action < 5 || live.empty()) {
      const u32 size = 2 + static_cast<u32>(script.below(7));
      const auto [of, sf] = fast.open(size, rng_fast);
      const auto [orr, sr] = ref.open(size, rng_ref);
      ASSERT_EQ(of, orr);
      ASSERT_EQ(sf.has_value(), sr.has_value());
      if (sf) {
        ASSERT_EQ(*sf, *sr);
        ASSERT_EQ(fast.members_of(*sf), ref.members_of(*sr));
        live.push_back(*sf);
      }
    } else if (action < 7) {
      const auto idx = static_cast<std::size_t>(script.below(live.size()));
      fast.close(live[idx]);
      ref.close(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (action == 7) {
      const auto idx = static_cast<std::size_t>(script.below(live.size()));
      const auto [jf, pf] = fast.join(live[idx], rng_fast);
      const auto [jr, pr] = ref.join(live[idx], rng_ref);
      ASSERT_EQ(jf, jr);
      ASSERT_EQ(pf.has_value(), pr.has_value());
      if (pf) {
        ASSERT_EQ(*pf, *pr);
      }
    } else if (action == 8) {
      const auto idx = static_cast<std::size_t>(script.below(live.size()));
      const auto& members = fast.members_of(live[idx]);
      ASSERT_EQ(members, ref.members_of(live[idx]));
      if (members.size() > 2) {
        const u32 port = members[script.below(members.size())];
        ASSERT_EQ(fast.leave(live[idx], port), ref.leave(live[idx], port));
      }
    } else if (action < 11) {
      const u32 level = 1 + static_cast<u32>(script.below(n - 1));
      const u32 row = static_cast<u32>(script.below(N));
      ASSERT_EQ(net_fast->fail_link(level, row),
                net_ref->fail_link(level, row));
    } else {
      const u32 level = 1 + static_cast<u32>(script.below(n - 1));
      const u32 row = static_cast<u32>(script.below(N));
      ASSERT_EQ(net_fast->repair_link(level, row),
                net_ref->repair_link(level, row));
    }
    ASSERT_EQ(fast.active_sessions(), ref.active_sessions());
    ASSERT_EQ(fast.stats().attempts, ref.stats().attempts);
    ASSERT_EQ(fast.stats().accepted, ref.stats().accepted);
    ASSERT_EQ(fast.stats().blocked_placement, ref.stats().blocked_placement);
    ASSERT_EQ(fast.stats().blocked_capacity, ref.stats().blocked_capacity);
    ASSERT_EQ(fast.stats().blocked_fault, ref.stats().blocked_fault);
  }
  audit::check_session_manager(fast);
  audit::check_session_manager(ref);
}

struct SessionTwinCase {
  Design design;
  PlacementPolicy policy;
};

class SessionEquivalence
    : public ::testing::TestWithParam<SessionTwinCase> {};

TEST_P(SessionEquivalence, FastMatchesReferenceUnderFaultChurn) {
  for (u64 seed = 1; seed <= 3; ++seed)
    session_churn_twin(GetParam().design, GetParam().policy, seed);
}

INSTANTIATE_TEST_SUITE_P(
    AllDesignsAndPolicies, SessionEquivalence,
    ::testing::Values(
        SessionTwinCase{Design::kDirect, PlacementPolicy::kBuddy},
        SessionTwinCase{Design::kDirect, PlacementPolicy::kFirstFit},
        SessionTwinCase{Design::kDirect, PlacementPolicy::kRandom},
        SessionTwinCase{Design::kEnhanced, PlacementPolicy::kBuddy},
        SessionTwinCase{Design::kEnhanced, PlacementPolicy::kFirstFit},
        SessionTwinCase{Design::kEnhanced, PlacementPolicy::kRandom}),
    [](const auto& info) {
      std::string name =
          info.param.design == Design::kDirect ? "direct" : "enhanced";
      name += info.param.policy == PlacementPolicy::kBuddy ? "Buddy"
              : info.param.policy == PlacementPolicy::kFirstFit
                  ? "FirstFit"
                  : "Random";
      return name;
    });

// --- Hold-queue watermark: no O(queue) rescans of doomed tickets --------

TEST(WaitQueueWatermark, CloseUnderLongQueueDoesBoundedWork) {
  const u32 n = 4;  // 16 ports
  DirectConferenceNetwork net(Kind::kIndirectCube, n,
                              DilationProfile::full(n));
  WaitQueueManager wq(net, PlacementPolicy::kFirstFit, 64);
  util::Rng rng(7);

  std::vector<u32> sessions;
  for (int i = 0; i < 4; ++i) {
    const auto r = wq.request(4, rng);
    ASSERT_EQ(r.outcome, RequestOutcome::kServed);
    sessions.push_back(*r.session);
  }
  // A long queue of full-network tickets behind a busy fabric.
  for (int i = 0; i < 16; ++i) {
    const auto r = wq.request(16, rng);
    ASSERT_EQ(r.outcome, RequestOutcome::kQueued);
  }
  ASSERT_EQ(wq.queue_length(), 16u);

  // Three closes free 4..12 ports; no queued size-16 ticket can fit, so
  // the watermark must skip them all without a single open attempt.
  const u64 attempts_before = wq.sessions().stats().attempts;
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(wq.close(sessions[static_cast<std::size_t>(i)], rng).empty());
  EXPECT_EQ(wq.sessions().stats().attempts, attempts_before);

  // The last close frees the whole fabric: exactly one attempt admits the
  // head; the next head is unplaceable again (0 free ports) and strict
  // FIFO stops the pass.
  const auto served = wq.close(sessions[3], rng);
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(wq.sessions().stats().attempts, attempts_before + 1);
  EXPECT_EQ(wq.queue_length(), 15u);
}

}  // namespace
}  // namespace confnet::conf
