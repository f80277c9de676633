// Conference subnetworks: the links a conference occupies inside a network.
//
// ALL_PAIRS (direct adoption): the union of unique paths between every
// ordered member pair. In a banyan-class network this equals
//   { (l,p) : In(l,p) ∩ G != {} and Out(l,p) ∩ G != {} },
// and because every topology's link row is the OR of a source-determined
// field and a destination-determined field, the level-l rows factor as
//   { a | b : a in {src_part(i)}, b in {dst_part(j)} },
// which is how `min::path_union` computes them in O(|A||B|) per level,
// for `all_pairs_links` here and for `sw::FabricState`, which derives a
// group's rows from its member list on demand instead of storing them.
//
// FANIN_TREE: the union of paths from every member to one root output —
// the combining tree of the mux-relay (Yang 2001) design. Both, and the
// multicast trees of analysis/conference/multicast.hpp, are one
// `path_union_links`.
//
// Both have generic (WindowTable-based) twins used as test oracles.
#pragma once

#include <span>
#include <vector>

#include "conference/conference.hpp"
#include "min/level_links.hpp"
#include "min/types.hpp"
#include "min/windows.hpp"

namespace confnet::conf {

/// Link rows per level (levels 0..n), each sorted and duplicate-free, in
/// one flat allocation (min/level_links.hpp).
using LevelLinks = min::LevelLinks;

/// Union of the unique paths from every source to every sink
/// (min::path_union): level l holds { src_part(i) | dst_part(j) }. Two
/// heap allocations (a parts scratch and the result) whatever n is.
[[nodiscard]] LevelLinks path_union_links(min::Kind kind, u32 n,
                                          std::span<const u32> sources,
                                          std::span<const u32> sinks);

/// ALL_PAIRS subnetwork via the closed-form path algebra: the path union
/// with the members as both sources and sinks.
[[nodiscard]] LevelLinks all_pairs_links(min::Kind kind, u32 n,
                                         const std::vector<u32>& members);

/// ALL_PAIRS subnetwork via explicit reachability windows (oracle), on
/// the table's network.
[[nodiscard]] LevelLinks all_pairs_links_generic(
    const min::WindowTable& wt, const std::vector<u32>& members);

/// True iff the conference occupies link (level,row) under ALL_PAIRS.
/// O(|members|) bit tests — this is the self-routing predicate a switch
/// controller would evaluate locally.
[[nodiscard]] bool uses_link(min::Kind kind, u32 n,
                             const std::vector<u32>& members, u32 level,
                             u32 row);

/// FANIN_TREE subnetwork: union of member->root paths (a path union).
[[nodiscard]] LevelLinks fanin_tree_links(min::Kind kind, u32 n,
                                          const std::vector<u32>& members,
                                          u32 root);

/// The enhanced (Yang 2001) realization on the indirect binary cube:
/// ALL_PAIRS links truncated at the completion level, where every member
/// taps its own row through its output multiplexer.
struct EnhancedRealization {
  LevelLinks links;   // levels above tap_level are empty
  u32 tap_level = 0;  // mux selection for every member output
};
[[nodiscard]] EnhancedRealization enhanced_cube_realization(
    u32 n, const std::vector<u32>& members);

/// Total number of links across all levels of a LevelLinks set.
[[nodiscard]] u64 total_links(const LevelLinks& links);

}  // namespace confnet::conf
