// Design-level behaviour: capacity admission, teardown bookkeeping,
// functional delivery, and the headline design claims (full dilation is
// nonblocking; enhanced cube is conflict-free under aligned placement).
#include "conference/designs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "analysis/conference/multiplicity.hpp"
#include "analysis/conference/replication.hpp"
#include "min/windows.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace confnet::conf {
namespace {

using min::Kind;

TEST(DilationProfile, Shapes) {
  const auto u = DilationProfile::uniform(4, 3);
  for (u32 l = 1; l < 4; ++l) EXPECT_EQ(u.channels(l), 3u);
  EXPECT_EQ(u.channels(0), 1u);
  EXPECT_EQ(u.channels(4), 1u);

  const auto f = DilationProfile::full(4);
  EXPECT_EQ(f.channels(1), 2u);
  EXPECT_EQ(f.channels(2), 4u);
  EXPECT_EQ(f.channels(3), 2u);

  const auto b = DilationProfile::bounded(4, 3);
  EXPECT_EQ(b.channels(1), 2u);
  EXPECT_EQ(b.channels(2), 3u);
  EXPECT_EQ(b.channels(3), 2u);
}

TEST(DilationProfile, TotalChannels) {
  // N=16: levels 1..3 carry 16*d(l) channels.
  EXPECT_EQ(DilationProfile::uniform(4, 1).total_channels(), 48u);
  EXPECT_EQ(DilationProfile::full(4).total_channels(),
            16u * (2 + 4 + 2));
}

TEST(Direct, SetupTeardownRestoresState) {
  DirectConferenceNetwork net(Kind::kOmega, 4,
                              DilationProfile::uniform(4, 2));
  const auto h1 = net.setup({0, 5, 9});
  ASSERT_TRUE(h1.has_value());
  EXPECT_EQ(net.active_count(), 1u);
  const auto h2 = net.setup({1, 6});
  ASSERT_TRUE(h2.has_value());
  EXPECT_EQ(net.active_count(), 2u);
  net.teardown(*h1);
  net.teardown(*h2);
  EXPECT_EQ(net.active_count(), 0u);
  for (u32 level = 0; level <= 4u; ++level)
    EXPECT_EQ(net.current_level_load(level), 0u);
}

TEST(Direct, RejectsBusyPorts) {
  DirectConferenceNetwork net(Kind::kBaseline, 3,
                              DilationProfile::full(3));
  ASSERT_TRUE(net.setup({0, 1}).has_value());
  EXPECT_FALSE(net.setup({1, 2}).has_value());
  EXPECT_EQ(net.last_error(), SetupError::kPortBusy);
}

TEST(Direct, FullDilationIsNonblockingForArbitraryPlacement) {
  // R1 consequence: with d(l) = min(2^l, 2^(n-l)) no disjoint conference
  // set can be refused for capacity.
  util::Rng rng(3);
  for (Kind kind : min::kAllKinds) {
    const u32 n = 5;
    DirectConferenceNetwork net(kind, n, DilationProfile::full(n));
    for (int round = 0; round < 20; ++round) {
      // Partition all 32 ports into random conferences of 2..5 members.
      std::vector<u32> ports(32);
      for (u32 i = 0; i < 32; ++i) ports[i] = i;
      rng.shuffle(std::span<u32>(ports));
      std::vector<u32> handles;
      std::size_t pos = 0;
      while (pos + 2 <= ports.size()) {
        const u32 size =
            std::min<u32>(2 + static_cast<u32>(rng.below(4)),
                          static_cast<u32>(ports.size() - pos));
        if (size < 2) break;
        std::vector<u32> members(ports.begin() + pos,
                                 ports.begin() + pos + size);
        const auto h = net.setup(members);
        ASSERT_TRUE(h.has_value())
            << min::kind_name(kind) << " round " << round;
        handles.push_back(*h);
        pos += size;
      }
      EXPECT_TRUE(net.verify_delivery()) << min::kind_name(kind);
      for (u32 h : handles) net.teardown(h);
    }
  }
}

TEST(Direct, UnitDilationBlocksTheAdversary) {
  // The R1 adversarial pair set cannot be fully set up at d=1.
  for (Kind kind : min::kAllKinds) {
    const u32 n = 4;
    const u32 level = 2;
    const ConferenceSet adversary =
        adversarial_conference_set(kind, n, level, 5);
    DirectConferenceNetwork net(kind, n, DilationProfile::uniform(n, 1));
    u32 accepted = 0;
    for (const Conference& c : adversary.conferences())
      if (net.setup(c.members()).has_value()) ++accepted;
    EXPECT_LT(accepted, adversary.size()) << min::kind_name(kind);
    EXPECT_EQ(net.last_error(), SetupError::kLinkCapacity);
  }
}

TEST(Direct, AdversaryMeetsR1ExactlyUnderTheLiveAudit) {
  // Full dilation admits the R1 adversary of any interstage link, which
  // then carries exactly min(2^l, 2^(n-l)) conferences. The design audit
  // (armed on every setup in CONFNET_AUDIT builds, called here in all
  // builds) checks that no link of any level carries more.
  const u32 n = 6;
  for (Kind kind : min::kAllKinds) {
    for (u32 level = 1; level < n; ++level) {
      for (u32 row : {u32{0}, u32{5}, u32{42}}) {
        const ConferenceSet adversary =
            adversarial_conference_set(kind, n, level, row);
        DirectConferenceNetwork net(kind, n, DilationProfile::full(n));
        for (const Conference& c : adversary.conferences())
          ASSERT_TRUE(net.setup(c.members()).has_value())
              << min::kind_name(kind) << " level " << level << " row " << row;
        EXPECT_EQ(net.current_link_load(level, row),
                  min::r1_bound(n, level))
            << min::kind_name(kind) << " level " << level << " row " << row;
        EXPECT_EQ(net.current_level_load(level), min::r1_bound(n, level));
        EXPECT_NO_THROW(audit::check_fabric_network(net));
      }
    }
  }
}

TEST(Direct, DeliveryCorrectUnderLoad) {
  util::Rng rng(9);
  for (Kind kind : min::kAllKinds) {
    DirectConferenceNetwork net(kind, 4, DilationProfile::full(4));
    ASSERT_TRUE(net.setup({0, 3, 12}).has_value());
    ASSERT_TRUE(net.setup({1, 7}).has_value());
    ASSERT_TRUE(net.setup({2, 8, 9, 15}).has_value());
    EXPECT_TRUE(net.verify_delivery()) << min::kind_name(kind);
  }
}

TEST(Direct, TeardownUnknownHandleThrows) {
  DirectConferenceNetwork net(Kind::kOmega, 3, DilationProfile::full(3));
  EXPECT_THROW(net.teardown(123), Error);
}

TEST(Enhanced, AlignedBlocksAlwaysFit) {
  EnhancedCubeNetwork net(4);
  // Fill the network with aligned blocks of mixed sizes.
  const auto h1 = net.setup({0, 1, 2, 3});
  const auto h2 = net.setup({4, 5});
  const auto h3 = net.setup({6, 7});
  const auto h4 = net.setup({8, 9, 10, 11, 12, 13, 14, 15});
  ASSERT_TRUE(h1 && h2 && h3 && h4);
  EXPECT_TRUE(net.verify_delivery());
  EXPECT_EQ(net.tap_level(*h1), 2u);
  EXPECT_EQ(net.tap_level(*h2), 1u);
  EXPECT_EQ(net.tap_level(*h4), 3u);
}

TEST(Enhanced, StagesForReportsTapLevel) {
  EnhancedCubeNetwork net(4);
  const auto h = net.setup({4, 5});
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(net.stages_for(*h), 1u);
  DirectConferenceNetwork d(Kind::kOmega, 4, DilationProfile::full(4));
  const auto hd = d.setup({4, 5});
  EXPECT_EQ(d.stages_for(*hd), 4u);
}

TEST(Enhanced, PartialBlocksStillConflictFree) {
  EnhancedCubeNetwork net(4);
  // Partial occupation of disjoint aligned blocks.
  ASSERT_TRUE(net.setup({0, 2}).has_value());     // inside block [0,4)
  ASSERT_TRUE(net.setup({5, 6}).has_value());     // inside block [4,8)
  ASSERT_TRUE(net.setup({8, 11}).has_value());    // inside block [8,12)
  EXPECT_TRUE(net.verify_delivery());
}

TEST(Enhanced, MisalignedConferencesMayCollide) {
  EnhancedCubeNetwork net(3);
  // {3,4} straddles the middle: completion level 3 -> occupies shared rows.
  ASSERT_TRUE(net.setup({3, 4}).has_value());
  // A second straddling conference conflicts somewhere in the cube.
  const auto h2 = net.setup({2, 5});
  EXPECT_FALSE(h2.has_value());
  EXPECT_EQ(net.last_error(), SetupError::kLinkCapacity);
}

TEST(Enhanced, TeardownFreesRowsForReuse) {
  EnhancedCubeNetwork net(3);
  const auto h1 = net.setup({0, 1, 2, 3});
  ASSERT_TRUE(h1.has_value());
  EXPECT_FALSE(net.setup({2, 4}).has_value());  // port busy
  net.teardown(*h1);
  EXPECT_TRUE(net.setup({2, 4}).has_value());
}

TEST(Designs, NamesAreDescriptive) {
  DirectConferenceNetwork d(Kind::kOmega, 3, DilationProfile::uniform(3, 2));
  EXPECT_EQ(d.name(), "direct-omega(d=2)");
  EnhancedCubeNetwork e(3);
  EXPECT_EQ(e.name(), "enhanced-cube");
  EXPECT_EQ(d.size(), 8u);
}

// A design owns its fabric and the fabric owns its network, so a design
// moved out of a freed source keeps serving every query and mutation.
// Under ASan, any reference left into the source is a use-after-free.
TEST(Designs, DirectDesignWorksAfterMove) {
  auto source = std::make_unique<DirectConferenceNetwork>(
      Kind::kOmega, 4, DilationProfile::full(4));
  const auto a = source->setup({0, 1, 2});
  const auto b = source->setup({4, 5, 9});
  ASSERT_TRUE(a.has_value() && b.has_value());
  const u32 row = all_pairs_links(Kind::kOmega, 4, {0, 1, 2})[2].front();
  EXPECT_EQ(source->fail_link(2, row), std::vector<u32>{*a});

  DirectConferenceNetwork net = std::move(*source);
  source.reset();
  EXPECT_EQ(net.active_count(), 2u);
  EXPECT_TRUE(net.link_faulty(2, row));
  EXPECT_FALSE(net.conference_survives(*a));
  EXPECT_TRUE(net.conference_survives(*b));
  EXPECT_FALSE(net.verify_delivery());
  EXPECT_FALSE(net.verify_delivery_reference());

  net.teardown(*a);
  EXPECT_TRUE(net.verify_delivery());
  EXPECT_TRUE(net.verify_delivery_reference());
  const auto c = net.setup({12, 13});
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(net.add_member(*c, 15));
  EXPECT_TRUE(net.remove_member(*b, 9));
  EXPECT_EQ(net.members_for(*c), (std::vector<u32>{12, 13, 15}));
  EXPECT_TRUE(net.conference_survives(*c));
  EXPECT_TRUE(net.verify_delivery());
  EXPECT_TRUE(net.verify_delivery_reference());
  EXPECT_EQ(net.repair_link(2, row), std::vector<u32>{});
  EXPECT_EQ(net.name(), "direct-omega(full)");
}

TEST(Designs, EnhancedDesignWorksAfterMove) {
  auto source = std::make_unique<EnhancedCubeNetwork>(4);
  const auto a = source->setup({0, 1, 2, 3});
  const auto b = source->setup({4, 5});
  ASSERT_TRUE(a.has_value() && b.has_value());

  EnhancedCubeNetwork net = std::move(*source);
  source.reset();
  EXPECT_EQ(net.active_count(), 2u);
  EXPECT_TRUE(net.conference_survives(*a));
  EXPECT_TRUE(net.verify_delivery());
  EXPECT_TRUE(net.verify_delivery_reference());

  EXPECT_TRUE(net.add_member(*b, 6));
  EXPECT_EQ(net.tap_level(*b), 2u);
  net.teardown(*a);
  const auto c = net.setup({8, 9, 10, 11, 12, 13, 14, 15});
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(net.tap_level(*c), 3u);
  EXPECT_TRUE(net.conference_survives(*c));
  EXPECT_TRUE(net.verify_delivery());
  EXPECT_TRUE(net.verify_delivery_reference());
}

// A long-lived design reuses freed handles: 10^5 setup/teardown cycles with
// at most three live conferences never hand out a handle of 3 or more, so
// the fabric's id table stays three entries long.
void expect_handles_recycled(ConferenceNetworkBase& net) {
  // Aligned port pairs: link-disjoint on the enhanced cube, within full
  // dilation on the direct design, and one plane each when replicated.
  const std::vector<std::vector<u32>> pairs{{0, 1}, {2, 3}, {4, 5}, {6, 7}};
  std::vector<u32> live;  // handles, oldest first
  std::vector<std::size_t> pair_of;  // the pair each live handle holds
  u32 largest = 0;
  for (u32 cycle = 0; cycle < 100000; ++cycle) {
    if (live.size() == 3) {
      net.teardown(live.front());
      live.erase(live.begin());
      pair_of.erase(pair_of.begin());
    }
    std::size_t free_pair = 0;
    while (std::find(pair_of.begin(), pair_of.end(), free_pair) !=
           pair_of.end())
      ++free_pair;
    const auto handle = net.setup(pairs[free_pair]);
    ASSERT_TRUE(handle.has_value()) << "cycle " << cycle;
    largest = std::max(largest, *handle);
    live.push_back(*handle);
    pair_of.push_back(free_pair);
  }
  EXPECT_LT(largest, 3u) << net.name();
  EXPECT_TRUE(net.verify_delivery());
}

TEST(Designs, DirectDesignRecyclesHandles) {
  DirectConferenceNetwork net(Kind::kOmega, 3, DilationProfile::full(3));
  expect_handles_recycled(net);
}

TEST(Designs, EnhancedDesignRecyclesHandles) {
  EnhancedCubeNetwork net(3);
  expect_handles_recycled(net);
}

TEST(Designs, ReplicatedDesignRecyclesHandles) {
  ReplicatedConferenceNetwork net(Kind::kOmega, 3, 3);
  expect_handles_recycled(net);
}

}  // namespace
}  // namespace confnet::conf
