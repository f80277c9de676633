#include "conference/subnetwork.hpp"

#include <algorithm>

#include "min/selfroute.hpp"
#include "min/windows.hpp"
#include "util/bits.hpp"
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

std::vector<u32> sorted_unique(std::vector<u32> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}
}  // namespace

std::vector<u32> all_pairs_rows_at(min::Kind kind, u32 n,
                                   const std::vector<u32>& members,
                                   u32 level) {
  check_members(n, members);
  expects(level <= n, "all_pairs_rows_at: level <= n");
  // Every topology's row is src_part(i) | dst_part(j) over disjoint bit
  // fields (min::row_parts).
  const min::RowParts parts = min::row_parts(kind, n, level);
  std::vector<u32> src_parts, dst_parts;
  src_parts.reserve(members.size());
  dst_parts.reserve(members.size());
  for (u32 m : members) {
    src_parts.push_back(parts.src.apply(m));
    dst_parts.push_back(parts.dst.apply(m));
  }
  src_parts = sorted_unique(std::move(src_parts));
  dst_parts = sorted_unique(std::move(dst_parts));
  std::vector<u32> rows;
  rows.reserve(src_parts.size() * dst_parts.size());
  for (u32 a : src_parts)
    for (u32 b : dst_parts) rows.push_back(a | b);
  return sorted_unique(std::move(rows));
}

LevelLinks all_pairs_links(min::Kind kind, u32 n,
                           const std::vector<u32>& members) {
  check_members(n, members);
  LevelLinks links(n + 1);
  for (u32 level = 0; level <= n; ++level)
    links[level] = all_pairs_rows_at(kind, n, members, level);
  return links;
}

LevelLinks all_pairs_links_generic(const min::WindowTable& wt,
                                   const std::vector<u32>& members) {
  const u32 N = wt.network().size();
  const u32 n = wt.network().n();
  check_members(n, members);
  util::DynBitset group(N);
  for (u32 m : members) group.set(m);
  LevelLinks links(n + 1);
  for (u32 level = 0; level <= n; ++level) {
    for (u32 row = 0; row < N; ++row) {
      if (wt.in_set(level, row).intersects(group) &&
          wt.out_set(level, row).intersects(group))
        links[level].push_back(row);
    }
  }
  return links;
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
  expects(root < (u32{1} << n), "fanin_tree: root out of range");
  LevelLinks links(n + 1);
  for (u32 level = 0; level <= n; ++level) {
    auto& rows = links[level];
    for (u32 m : members)
      rows.push_back(min::path_row(kind, n, m, root, level));
    rows = sorted_unique(std::move(rows));
  }
  return links;
}

u32 cube_completion_level(u32 n, const std::vector<u32>& members) {
  check_members(n, members);
  u32 diff = 0;
  for (u32 m : members) diff |= m ^ members.front();
  return diff == 0 ? 0 : util::highest_bit(diff) + 1;
}

EnhancedRealization enhanced_cube_realization(
    u32 n, const std::vector<u32>& members) {
  EnhancedRealization real;
  real.tap_level = cube_completion_level(n, members);
  real.links = all_pairs_links(min::Kind::kIndirectCube, n, members);
  for (u32 level = real.tap_level + 1; level <= n; ++level)
    real.links[level].clear();
  return real;
}

u64 total_links(const LevelLinks& links) {
  u64 total = 0;
  for (const auto& rows : links) total += rows.size();
  return total;
}

}  // namespace confnet::conf
