#include "cluster/trunkbook.hpp"

#include <algorithm>

namespace confnet::cluster {

TrunkBook::TrunkBook(u32 shards, u32 lanes_per_pair, u32 conferences_per_lane)
    : shards_(shards), lanes_(lanes_per_pair), cpl_(conferences_per_lane) {
  expects(shards >= 1, "trunk book needs at least one shard");
  expects(cpl_ >= 1, "each lane must carry at least one conference");
  used_.assign(pair_count(), 0);
  sharers_.assign(pair_count(), 0);
  faulty_.assign(pair_count(), false);
}

u32 TrunkBook::pair_index(u32 a, u32 b) const {
  expects(a != b && a < shards_ && b < shards_, "bad trunk pair");
  if (a > b) std::swap(a, b);
  // Lexicographic rank of (a,b), a < b: all pairs starting below a, then
  // the offset of b inside a's run.
  return a * (2 * shards_ - a - 1) / 2 + (b - a - 1);
}

u32 TrunkBook::used(u32 a, u32 b) const { return used_[pair_index(a, b)]; }

u32 TrunkBook::sharers(u32 a, u32 b) const {
  return sharers_[pair_index(a, b)];
}

bool TrunkBook::faulty(u32 a, u32 b) const {
  return faulty_[pair_index(a, b)];
}

bool TrunkBook::reserve_mesh(const std::vector<u32>& touched) {
  const u64 cap = static_cast<u64>(lanes_) * cpl_;
  bool fits = true;
  for_each_tree_pair(touched, [&](u32 p) {
    fits = fits && !faulty_[p] && sharers_[p] < cap;
  });
  if (!fits) return false;
  for_each_tree_pair(touched, [&](u32 p) {
    ++sharers_[p];
    ++sharer_total_;
    // A fresh lane lights up only when the sharer count crosses a
    // conferences_per_lane boundary; joiners ride the existing lane.
    const u32 lanes_now = (sharers_[p] + cpl_ - 1) / cpl_;
    if (lanes_now > used_[p]) {
      used_[p] = lanes_now;
      ++reserved_;
      ++acquires_;
      peak_ = std::max(peak_, used_[p]);
    }
  });
  return true;
}

void TrunkBook::release_mesh(const std::vector<u32>& touched) {
  for_each_tree_pair(touched, [&](u32 p) {
    expects(sharers_[p] > 0 && sharer_total_ > 0, "trunk lane double release");
    --sharers_[p];
    --sharer_total_;
    const u32 lanes_now = (sharers_[p] + cpl_ - 1) / cpl_;
    if (lanes_now < used_[p]) {
      expects(reserved_ > 0, "trunk lane double release");
      used_[p] = lanes_now;
      --reserved_;
    }
  });
}

bool TrunkBook::fail_pair(u32 a, u32 b) {
  const u32 p = pair_index(a, b);
  if (faulty_[p]) return false;
  faulty_[p] = true;
  return true;
}

bool TrunkBook::repair_pair(u32 a, u32 b) {
  const u32 p = pair_index(a, b);
  if (!faulty_[p]) return false;
  faulty_[p] = false;
  return true;
}

}  // namespace confnet::cluster
