// The 2x2 switch module with fan-in and fan-out capability — the building
// block the abstract describes ("switch modules with fan-in and fan-out
// capability"). Each output independently selects: idle, the upper input,
// the lower input, or the combination (mix) of both.
//
// A plain crossbar 2x2 can only realize straight/exchange; fan-out adds the
// broadcast settings; fan-in adds the combine settings. The capability
// flags let tests and cost models reason about restricted modules.
#pragma once

#include <array>
#include <cstdint>

#include "switchmod/signal.hpp"

namespace confnet::sw {

enum class PortSelect : std::uint8_t {
  kIdle,     // output drives nothing
  kUpper,    // output <- input 0
  kLower,    // output <- input 1
  kCombine,  // output <- mix(input 0, input 1)   (fan-in)
};

/// A full module setting: one selector per output.
struct SwitchSetting {
  std::array<PortSelect, 2> out{PortSelect::kIdle, PortSelect::kIdle};

  friend constexpr bool operator==(SwitchSetting a, SwitchSetting b) noexcept {
    return a.out == b.out;
  }
};

/// What a module is physically able to do.
struct SwitchCapability {
  bool fan_out = true;  // may deliver one input to both outputs
  bool fan_in = true;   // may combine both inputs onto one output
};

/// True iff `setting` is realizable by a module with `cap`.
[[nodiscard]] bool setting_allowed(SwitchSetting setting, SwitchCapability cap);

/// Apply a setting to the two input signals, producing the two outputs.
[[nodiscard]] std::array<MemberSet, 2> apply_setting(
    SwitchSetting setting, const MemberSet& in0, const MemberSet& in1);

/// Derive the setting a switch must take when, per output, we know whether
/// each input's signal must be present on it. `need[o][i]` = output o needs
/// input i. Throws confnet::Error when the demand needs a capability that
/// `cap` lacks (e.g. combining without fan-in).
[[nodiscard]] SwitchSetting derive_setting(
    const std::array<std::array<bool, 2>, 2>& need, SwitchCapability cap);

/// Number of distinct settings a capability admits (used in docs/tests:
/// plain crossbar 2x2 has 2 full settings; fan-out raises connection count;
/// fan-in completes the lattice).
[[nodiscard]] std::size_t count_allowed_settings(SwitchCapability cap);

}  // namespace confnet::sw
