// Common identifiers for the multistage-interconnection-network substrate.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace confnet::min {

using u32 = std::uint32_t;
using u64 = std::uint64_t;

/// The class of banyan multistage networks studied by the paper, plus two
/// companions that complete the classic taxonomy.
enum class Kind : std::uint8_t {
  kOmega,         // perfect-shuffle wiring before every stage
  kBaseline,      // recursive block inverse-shuffle after every stage
  kIndirectCube,  // stage k pairs rows differing in bit k (LSB first)
  kButterfly,     // stage k pairs rows differing in bit n-1-k (MSB first)
  kFlip,          // reverse baseline
  kReverseOmega,  // inverse-shuffle wiring after every stage (omega mirrored)
};

/// How a kind lays out its level-l row address (Gur & Zalevsky's
/// "fundamental arrangement"): the row on the unique src -> dst path is a
/// field of n-l source bits beside a field of l destination bits, each
/// taken from one end of its address. Everything else about a kind is
/// derived from these three bits: path rows and row parts (selfroute),
/// window shapes (windows), stage wiring and routing bit order (network)
/// and the class isomorphisms (equivalence).
struct KindLayout {
  std::string_view name;
  bool src_high;    // keeps the source's high n-l bits (else its low n-l)
  bool dst_top;     // keeps the destination's top l bits (else its low l)
  bool src_on_top;  // the source field sits above the destination field
};

/// One row per Kind, in enum order; the comment is the level-l row, most
/// significant field first.
inline constexpr std::array<KindLayout, 6> kKindLayouts{{
    {"omega", false, true, true},           // s_low  | d_top
    {"baseline", true, true, false},        // d_top  | s_high
    {"cube", true, false, true},            // s_high | d_low
    {"butterfly", false, true, false},      // d_top  | s_low
    {"flip", true, true, true},             // s_high | d_top
    {"reverse-omega", true, false, false},  // d_low  | s_high
}};

[[nodiscard]] constexpr const KindLayout& layout(Kind k) noexcept {
  return kKindLayouts[static_cast<std::size_t>(k)];
}

inline constexpr std::array<Kind, 6> kAllKinds{
    Kind::kOmega,     Kind::kBaseline, Kind::kIndirectCube,
    Kind::kButterfly, Kind::kFlip,     Kind::kReverseOmega};

/// The three networks the ICPP 2002 abstract names explicitly.
inline constexpr std::array<Kind, 3> kPaperKinds{
    Kind::kBaseline, Kind::kOmega, Kind::kIndirectCube};

[[nodiscard]] constexpr std::string_view kind_name(Kind k) noexcept {
  return layout(k).name;
}

/// Parse a kind name as produced by kind_name(); throws on anything else.
[[nodiscard]] Kind kind_from_name(std::string_view name);

/// A link in the stage graph. Level 0 = network inputs, level n = network
/// outputs, levels 1..n-1 = interstage links. `row` in [0, N).
struct LinkRef {
  u32 level = 0;
  u32 row = 0;

  friend constexpr bool operator==(LinkRef a, LinkRef b) noexcept {
    return a.level == b.level && a.row == b.row;
  }
  friend constexpr auto operator<=>(LinkRef a, LinkRef b) noexcept = default;
};

/// Dense index of a link given network size N: level * N + row.
[[nodiscard]] constexpr u64 link_index(LinkRef l, u32 N) noexcept {
  return static_cast<u64>(l.level) * N + l.row;
}

}  // namespace confnet::min
