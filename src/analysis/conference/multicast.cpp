#include "analysis/conference/multicast.hpp"

#include <algorithm>
#include <span>

#include "conference/subnetwork.hpp"
#include "min/windows.hpp"
#include "util/error.hpp"

namespace confnet::conf {

using min::Kind;

Multicast::Multicast(u32 id, u32 source, std::vector<u32> receivers)
    : id_(id), source_(source), receivers_(std::move(receivers)) {
  std::sort(receivers_.begin(), receivers_.end());
  receivers_.erase(std::unique(receivers_.begin(), receivers_.end()),
                   receivers_.end());
  expects(!receivers_.empty(), "a multicast needs at least one receiver");
}

MulticastSet::MulticastSet(u32 num_ports)
    : num_ports_(num_ports),
      source_used_(num_ports, false),
      receiver_used_(num_ports, false) {
  expects(num_ports >= 2, "MulticastSet needs at least two ports");
}

void MulticastSet::add(Multicast multicast) {
  expects(multicast.source() < num_ports_, "source out of range");
  expects(!source_used_[multicast.source()],
          "multicast sources must be distinct");
  for (u32 r : multicast.receivers()) {
    expects(r < num_ports_, "receiver out of range");
    expects(!receiver_used_[r], "receiver sets must be pairwise disjoint");
  }
  source_used_[multicast.source()] = true;
  for (u32 r : multicast.receivers()) receiver_used_[r] = true;
  multicasts_.push_back(std::move(multicast));
}

min::LevelLinks multicast_tree_links(Kind kind, u32 n, u32 source,
                                     const std::vector<u32>& receivers) {
  return path_union_links(kind, n, std::span(&source, 1), receivers);
}

bool multicast_uses_link(Kind kind, u32 n, u32 source,
                         const std::vector<u32>& receivers, u32 level,
                         u32 row) {
  const min::WindowDesc in_w = min::in_window(kind, n, level, row);
  if (!in_w.contains(source)) return false;
  const min::WindowDesc out_w = min::out_window(kind, n, level, row);
  for (u32 r : receivers)
    if (out_w.contains(r)) return true;
  return false;
}

MulticastProfile measure_multicast_multiplicity(Kind kind, u32 n,
                                                const MulticastSet& set) {
  const u32 N = u32{1} << n;
  MulticastProfile profile;
  profile.per_level.assign(n + 1, 0);
  std::vector<u32> counts(N);
  for (u32 level = 0; level <= n; ++level) {
    std::fill(counts.begin(), counts.end(), 0u);
    u32 level_max = 0;
    for (const Multicast& m : set.multicasts()) {
      const auto links =
          multicast_tree_links(kind, n, m.source(), m.receivers());
      for (u32 row : links[level])
        level_max = std::max(level_max, ++counts[row]);
    }
    profile.per_level[level] = set.size() == 0 ? 0 : level_max;
    if (level >= 1 && level < n)
      profile.peak = std::max(profile.peak, profile.per_level[level]);
  }
  return profile;
}

MulticastSet multicast_adversarial_set(Kind kind, u32 n, u32 level,
                                       u32 row) {
  const u32 N = u32{1} << n;
  expects(level <= n && row < N, "multicast adversary: bad link");
  const min::WindowDesc in_w = min::in_window(kind, n, level, row);
  const min::WindowDesc out_w = min::out_window(kind, n, level, row);
  const u32 m = std::min(in_w.size, out_w.size);
  MulticastSet set(N);
  // Sources and receivers are separate resources: pair the i-th In element
  // with the i-th Out element directly.
  for (u32 i = 0; i < m; ++i)
    set.add(Multicast(i, in_w.element(i), {out_w.element(i)}));
  return set;
}

}  // namespace confnet::conf
