#include "analysis/switchmod/module.hpp"

#include <cstddef>

#include "util/error.hpp"

namespace confnet::sw {

namespace {
constexpr std::array<PortSelect, 4> kAllSelects{
    PortSelect::kIdle, PortSelect::kUpper, PortSelect::kLower,
    PortSelect::kCombine};

bool uses_input(PortSelect s, std::size_t input) noexcept {
  switch (s) {
    case PortSelect::kIdle: return false;
    case PortSelect::kUpper: return input == 0;
    case PortSelect::kLower: return input == 1;
    case PortSelect::kCombine: return true;
  }
  return false;
}
}  // namespace

bool setting_allowed(SwitchSetting setting, SwitchCapability cap) {
  if (!cap.fan_in) {
    for (PortSelect s : setting.out)
      if (s == PortSelect::kCombine) return false;
  }
  if (!cap.fan_out) {
    // Without fan-out no input may feed both outputs.
    for (std::size_t input = 0; input < 2; ++input)
      if (uses_input(setting.out[0], input) && uses_input(setting.out[1], input))
        return false;
  }
  return true;
}

std::array<MemberSet, 2> apply_setting(SwitchSetting setting,
                                       const MemberSet& in0,
                                       const MemberSet& in1) {
  std::array<MemberSet, 2> out;
  for (std::size_t o = 0; o < 2; ++o) {
    switch (setting.out[o]) {
      case PortSelect::kIdle:
        break;
      case PortSelect::kUpper:
        out[o] = in0;
        break;
      case PortSelect::kLower:
        out[o] = in1;
        break;
      case PortSelect::kCombine: {
        MemberSet mixed = in0;
        mixed.combine(in1);
        out[o] = mixed;
        break;
      }
    }
  }
  return out;
}

SwitchSetting derive_setting(const std::array<std::array<bool, 2>, 2>& need,
                             SwitchCapability cap) {
  SwitchSetting setting;
  for (std::size_t o = 0; o < 2; ++o) {
    const bool want0 = need[o][0];
    const bool want1 = need[o][1];
    if (want0 && want1) {
      expects(cap.fan_in, "demand requires fan-in capability");
      setting.out[o] = PortSelect::kCombine;
    } else if (want0) {
      setting.out[o] = PortSelect::kUpper;
    } else if (want1) {
      setting.out[o] = PortSelect::kLower;
    } else {
      setting.out[o] = PortSelect::kIdle;
    }
  }
  expects(setting_allowed(setting, cap),
          "demand requires fan-out capability");
  return setting;
}

std::size_t count_allowed_settings(SwitchCapability cap) {
  std::size_t count = 0;
  for (PortSelect a : kAllSelects)
    for (PortSelect b : kAllSelects)
      if (setting_allowed(SwitchSetting{{a, b}}, cap)) ++count;
  return count;
}

}  // namespace confnet::sw
