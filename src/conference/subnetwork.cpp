#include "conference/subnetwork.hpp"

#include <algorithm>
#include <array>
#include <span>

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

std::span<u32> sort_unique(std::span<u32> v) {
  std::sort(v.begin(), v.end());
  return v.first(static_cast<std::size_t>(
      std::unique(v.begin(), v.end()) - v.begin()));
}
}  // namespace

void path_union_links(min::Kind kind, u32 n, std::span<const u32> sources,
                      std::span<const u32> sinks, LevelLinks& links,
                      std::vector<u32>& parts) {
  expects(n >= 1 && n <= 20, "subnetwork: 1 <= n <= 20");
  expects(!sources.empty() && !sinks.empty(), "path union: empty endpoints");
  for (u32 v : sources) expects(v < (u32{1} << n), "source out of range");
  for (u32 v : sinks) expects(v < (u32{1} << n), "sink out of range");
  // Every topology's row is src_part(i) | dst_part(j) over disjoint bit
  // fields (min::row_parts), so each pair of distinct parts names a
  // distinct row: count every level's rows from its distinct parts, then
  // shape the result once and sort each level in place.
  const std::size_t s = sources.size();
  const std::size_t d = sinks.size();
  parts.resize((s + d) * (n + 1));
  std::array<std::span<u32>, 21> src, dst;  // n <= 20
  std::array<u32, 21> counts{};
  for (u32 level = 0; level <= n; ++level) {
    const min::RowParts rp = min::row_parts(kind, n, level);
    const auto a = std::span(parts).subspan((s + d) * level, s);
    const auto b = std::span(parts).subspan((s + d) * level + s, d);
    for (std::size_t i = 0; i < s; ++i) a[i] = rp.src.apply(sources[i]);
    for (std::size_t j = 0; j < d; ++j) b[j] = rp.dst.apply(sinks[j]);
    src[level] = sort_unique(a);
    dst[level] = sort_unique(b);
    counts[level] = static_cast<u32>(src[level].size() * dst[level].size());
  }
  links.reshape(std::span<const u32>(counts.data(), n + 1));
  for (u32 level = 0; level <= n; ++level) {
    const std::span<u32> rows = links.rows(level);
    std::size_t k = 0;
    for (u32 a : src[level])
      for (u32 b : dst[level]) rows[k++] = a | b;
    std::sort(rows.begin(), rows.end());
  }
}

LevelLinks path_union_links(min::Kind kind, u32 n,
                            std::span<const u32> sources,
                            std::span<const u32> sinks) {
  LevelLinks links;
  std::vector<u32> parts;
  path_union_links(kind, n, sources, sinks, links, parts);
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
  real.links.truncate_above(real.tap_level);
  return real;
}

u64 total_links(const LevelLinks& links) {
  return links.levels() == 0 ? 0 : links.base(links.levels());
}

}  // namespace confnet::conf
