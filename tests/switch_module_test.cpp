// Unit tests for the 2x2 fan-in/fan-out switch module and the combining
// signal algebra.
#include "analysis/switchmod/module.hpp"

#include <gtest/gtest.h>

#include "analysis/switchmod/mux.hpp"
#include "util/error.hpp"

namespace confnet::sw {
namespace {

MemberSet ms(std::vector<u32> v) { return MemberSet(std::move(v)); }

TEST(MemberSet, SortsAndDedups) {
  const MemberSet s({3, 1, 3, 2});
  EXPECT_EQ(s.values(), (std::vector<u32>{1, 2, 3}));
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.contains(2));
  EXPECT_FALSE(s.contains(4));
}

TEST(MemberSet, CombineIsUnion) {
  MemberSet a({1, 3});
  a.combine(ms({2, 3, 5}));
  EXPECT_EQ(a.values(), (std::vector<u32>{1, 2, 3, 5}));
}

TEST(MemberSet, CombineWithEmpty) {
  MemberSet a({7});
  a.combine(MemberSet{});
  EXPECT_EQ(a.values(), (std::vector<u32>{7}));
  MemberSet b;
  b.combine(a);
  EXPECT_EQ(b.values(), a.values());
}

TEST(MemberSet, CombineAssociativeCommutative) {
  MemberSet x1({1}), y1({2}), z1({3});
  MemberSet left = x1;
  left.combine(y1);
  left.combine(z1);
  MemberSet right = z1;
  right.combine(y1);
  right.combine(x1);
  EXPECT_EQ(left, right);
}

TEST(SwitchModule, ApplyStraight) {
  const SwitchSetting straight{{PortSelect::kUpper, PortSelect::kLower}};
  const auto out = apply_setting(straight, ms({1}), ms({2}));
  EXPECT_EQ(out[0].values(), (std::vector<u32>{1}));
  EXPECT_EQ(out[1].values(), (std::vector<u32>{2}));
}

TEST(SwitchModule, ApplyExchange) {
  const SwitchSetting exchange{{PortSelect::kLower, PortSelect::kUpper}};
  const auto out = apply_setting(exchange, ms({1}), ms({2}));
  EXPECT_EQ(out[0].values(), (std::vector<u32>{2}));
  EXPECT_EQ(out[1].values(), (std::vector<u32>{1}));
}

TEST(SwitchModule, ApplyBroadcast) {
  const SwitchSetting bcast{{PortSelect::kUpper, PortSelect::kUpper}};
  const auto out = apply_setting(bcast, ms({1, 4}), ms({2}));
  EXPECT_EQ(out[0].values(), (std::vector<u32>{1, 4}));
  EXPECT_EQ(out[1].values(), (std::vector<u32>{1, 4}));
}

TEST(SwitchModule, ApplyCombine) {
  const SwitchSetting comb{{PortSelect::kCombine, PortSelect::kIdle}};
  const auto out = apply_setting(comb, ms({1}), ms({2}));
  EXPECT_EQ(out[0].values(), (std::vector<u32>{1, 2}));
  EXPECT_TRUE(out[1].empty());
}

TEST(SwitchModule, CapabilityGating) {
  const SwitchCapability plain{false, false};
  const SwitchCapability fanout_only{true, false};
  const SwitchCapability full{true, true};
  const SwitchSetting bcast{{PortSelect::kUpper, PortSelect::kUpper}};
  const SwitchSetting comb{{PortSelect::kCombine, PortSelect::kIdle}};
  const SwitchSetting straight{{PortSelect::kUpper, PortSelect::kLower}};
  EXPECT_TRUE(setting_allowed(straight, plain));
  EXPECT_FALSE(setting_allowed(bcast, plain));
  EXPECT_TRUE(setting_allowed(bcast, fanout_only));
  EXPECT_FALSE(setting_allowed(comb, fanout_only));
  EXPECT_TRUE(setting_allowed(comb, full));
}

TEST(SwitchModule, SettingCountsGrowWithCapability) {
  const auto plain = count_allowed_settings({false, false});
  const auto fanout = count_allowed_settings({true, false});
  const auto full = count_allowed_settings({true, true});
  EXPECT_LT(plain, fanout);
  EXPECT_LT(fanout, full);
  EXPECT_EQ(full, 16u);  // 4 selects per output, no restriction
}

TEST(SwitchModule, DeriveSettingFromDemand) {
  const SwitchCapability full{true, true};
  // Output 0 needs both inputs; output 1 needs only the lower.
  const auto s = derive_setting({{{true, true}, {false, true}}}, full);
  EXPECT_EQ(s.out[0], PortSelect::kCombine);
  EXPECT_EQ(s.out[1], PortSelect::kLower);
}

TEST(SwitchModule, DeriveSettingRespectsCapability) {
  const SwitchCapability no_fanin{true, false};
  EXPECT_THROW((void)derive_setting({{{true, true}, {false, false}}},
                                    no_fanin),
               Error);
  const SwitchCapability no_fanout{false, true};
  // Input 0 demanded on both outputs requires fan-out.
  EXPECT_THROW((void)derive_setting({{{true, false}, {true, false}}},
                                    no_fanout),
               Error);
}

TEST(SwitchModule, DeriveSettingRoundTrips) {
  // For every demand realizable with full capability, applying the derived
  // setting yields exactly the demanded signals.
  const SwitchCapability full{true, true};
  const MemberSet in0 = ms({10});
  const MemberSet in1 = ms({20});
  for (int mask = 0; mask < 16; ++mask) {
    const std::array<std::array<bool, 2>, 2> need{
        {{(mask & 1) != 0, (mask & 2) != 0},
         {(mask & 4) != 0, (mask & 8) != 0}}};
    const auto setting = derive_setting(need, full);
    const auto out = apply_setting(setting, in0, in1);
    for (int o = 0; o < 2; ++o) {
      EXPECT_EQ(out[o].contains(10), need[o][0]);
      EXPECT_EQ(out[o].contains(20), need[o][1]);
    }
  }
}

TEST(Multiplexer, SelectAndCost) {
  Multiplexer mux(11);
  EXPECT_EQ(mux.input_count(), 11u);
  EXPECT_FALSE(mux.selected().has_value());
  mux.select(7);
  EXPECT_EQ(mux.selected(), std::optional<std::uint32_t>(7));
  mux.select(std::nullopt);
  EXPECT_FALSE(mux.selected().has_value());
  EXPECT_THROW(mux.select(11), Error);
  EXPECT_EQ(Multiplexer::gate_cost(11), 10u);
  EXPECT_EQ(Multiplexer::gate_cost(1), 0u);
}

}  // namespace
}  // namespace confnet::sw
