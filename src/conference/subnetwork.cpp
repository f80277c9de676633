#include "conference/subnetwork.hpp"

#include <algorithm>
#include <span>

#include "min/selfroute.hpp"
#include "min/windows.hpp"
#include "util/error.hpp"

namespace confnet::conf {

namespace {
void check_members(u32 n, const std::vector<u32>& members) {
  expects(n >= 1 && n <= 20, "subnetwork: 1 <= n <= 20");
  expects(!members.empty(), "subnetwork: empty member set");
  expects(std::is_sorted(members.begin(), members.end()),
          "subnetwork: members must be sorted");
  expects(members.back() < (u32{1} << n), "subnetwork: member out of range");
}
}  // namespace

LevelLinks path_union_links(min::Kind kind, u32 n,
                            std::span<const u32> sources,
                            std::span<const u32> sinks) {
  LevelLinks links;
  std::vector<u32> parts;
  min::path_union(kind, n, sources, sinks, n, links, parts);
  return links;
}

LevelLinks all_pairs_links(min::Kind kind, u32 n,
                           const std::vector<u32>& members) {
  check_members(n, members);
  return path_union_links(kind, n, members, members);
}

LevelLinks all_pairs_links_generic(const min::WindowTable& wt,
                                   const std::vector<u32>& members) {
  const u32 N = wt.network().size();
  const u32 n = wt.network().n();
  check_members(n, members);
  util::DynBitset group(N);
  for (u32 m : members) group.set(m);
  std::vector<std::vector<u32>> links(n + 1);
  for (u32 level = 0; level <= n; ++level) {
    for (u32 row = 0; row < N; ++row) {
      if (wt.in_set(level, row).intersects(group) &&
          wt.out_set(level, row).intersects(group))
        links[level].push_back(row);
    }
  }
  return LevelLinks(links);
}

bool uses_link(min::Kind kind, u32 n, const std::vector<u32>& members,
               u32 level, u32 row) {
  check_members(n, members);
  const min::WindowDesc in_w = min::in_window(kind, n, level, row);
  const min::WindowDesc out_w = min::out_window(kind, n, level, row);
  bool has_src = false;
  bool has_dst = false;
  for (u32 m : members) {
    has_src = has_src || in_w.contains(m);
    has_dst = has_dst || out_w.contains(m);
    if (has_src && has_dst) return true;
  }
  return false;
}

LevelLinks fanin_tree_links(min::Kind kind, u32 n,
                            const std::vector<u32>& members, u32 root) {
  check_members(n, members);
  return path_union_links(kind, n, members, std::span(&root, 1));
}

EnhancedRealization enhanced_cube_realization(
    u32 n, const std::vector<u32>& members) {
  EnhancedRealization real;
  check_members(n, members);
  real.tap_level = min::cube_tap_level(members);
  std::vector<u32> parts;
  min::path_union(min::Kind::kIndirectCube, n, members, members,
                  real.tap_level, real.links, parts);
  return real;
}

u64 total_links(const LevelLinks& links) {
  return links.levels() == 0 ? 0 : links.base(links.levels());
}

}  // namespace confnet::conf
