// Per-shard-pair trunk capacity accounting for the multi-fabric cluster.
//
// A spanning conference relays its combined signal over a star of trunk
// pairs: the root is touched[(sum of touched) mod k] and the tree holds the
// k-1 root-leaf pairs, so k legs cost k-1 sharer slots, not the k(k-1)/2 of
// a full mesh. The root's relay termination forwards to each leaf the sum
// of everyone else, as a cascaded conference bridge does, so every member
// still hears every other member. The star depends only on the touched set,
// and for_each_tree_pair is the one definition of the pairs a span holds.
// Lanes are multiplexed: each lane carries up to
// `conferences_per_lane` spanning conferences (mixer-multiplexing — the
// relay mixers time-share the lane), so a pair with L lanes admits up to
// L * conferences_per_lane sharers. The TrunkBook is the ledger for that
// sharing: per-pair sharer refcounts, derived lanes-in-use
// (ceil(sharers / conferences_per_lane)), fault state, and the
// all-or-nothing tree reserve/release the cluster's admission commits
// against. It never touches the shard fabrics — lanes are pure
// accounting, which is what lets trunk reservation be the atomic commit
// point of cross-shard setup.
//
// Thread-safety: externally synchronized — owned and mutated only by the
// cluster coordinator (see cluster.hpp); every member is tagged with its
// owner for the `cluster-owner` static check.
#pragma once

#include <ranges>
#include <vector>

#include "min/types.hpp"
#include "util/error.hpp"

namespace confnet::cluster {

using u32 = min::u32;
using u64 = min::u64;

class TrunkBook {
 public:
  /// `shards` fabrics joined pairwise; `lanes_per_pair` trunk lanes between
  /// every unordered shard pair (0 = no cross-shard capacity at all); each
  /// lane multiplexes up to `conferences_per_lane` spanning conferences
  /// (1 = the PR 9 mixer-per-lane model).
  TrunkBook(u32 shards, u32 lanes_per_pair, u32 conferences_per_lane = 1);

  [[nodiscard]] u32 shards() const noexcept { return shards_; }
  [[nodiscard]] u32 lanes_per_pair() const noexcept { return lanes_; }
  [[nodiscard]] u32 conferences_per_lane() const noexcept { return cpl_; }
  [[nodiscard]] u32 pair_count() const noexcept {
    return shards_ * (shards_ - 1) / 2;
  }

  /// Lanes in use on pair {a,b}: ceil(sharers / conferences_per_lane).
  [[nodiscard]] u32 used(u32 a, u32 b) const;
  /// Spanning conferences currently holding pair {a,b}.
  [[nodiscard]] u32 sharers(u32 a, u32 b) const;
  [[nodiscard]] bool faulty(u32 a, u32 b) const;

  /// Call `fn(pair_index)` for each pair of the trunk star over `touched`
  /// (any sized random-access range of sorted, distinct shard ids): one
  /// root-leaf pair per leaf, rooted at touched[(sum of touched) mod k].
  /// Allocation-free; reserve, release, the cluster's trunk-fault victim
  /// test and its audit recount all walk the same pairs.
  template <class Shards, class Fn>
  void for_each_tree_pair(const Shards& touched, Fn&& fn) const {
    const auto k = static_cast<u32>(std::ranges::size(touched));
    if (k < 2) return;  // a single leg holds no trunk
    u32 sum = 0;
    for (const u32 s : touched) sum += s;
    const u32 root = std::ranges::begin(touched)[sum % k];
    for (const u32 s : touched)
      if (s != root) fn(pair_index(root, s));
  }

  /// Reserve one sharer slot on every tree pair of `touched` (sorted,
  /// distinct shard ids), all-or-nothing: on any exhausted or faulty pair
  /// nothing is reserved and false returns. A fresh lane is charged only
  /// when the sharer count crosses a conferences_per_lane boundary.
  [[nodiscard]] bool reserve_mesh(const std::vector<u32>& touched);

  /// Release the tree previously reserved for `touched`.
  void release_mesh(const std::vector<u32>& touched);

  /// Fail / repair the trunk between shards a and b. Both are idempotent;
  /// the return reports whether the state changed. Failing a pair does not
  /// release sharer slots — the cluster tears down every spanning
  /// conference whose tree holds the pair, and their releases restore the
  /// count.
  bool fail_pair(u32 a, u32 b);
  bool repair_pair(u32 a, u32 b);

  /// Lanes currently reserved across all pairs.
  [[nodiscard]] u64 reserved_total() const noexcept { return reserved_; }
  /// Sharer slots currently held across all pairs.
  [[nodiscard]] u64 sharers_total() const noexcept { return sharer_total_; }
  /// High-water mark of lanes in use on any single pair.
  [[nodiscard]] u32 peak_pair_used() const noexcept { return peak_; }
  /// Cumulative lane acquisitions — counts fresh lanes brought into use,
  /// not sharers joining an already-lit lane (bench/trend counter).
  [[nodiscard]] u64 lane_acquires() const noexcept { return acquires_; }

  /// Raw per-pair lanes-in-use snapshot, indexed by pair_index order
  /// (a < b, lexicographic) — audit and test surface.
  [[nodiscard]] const std::vector<u32>& used_by_pair() const noexcept {
    return used_;
  }
  /// Raw per-pair sharer refcounts, same indexing.
  [[nodiscard]] const std::vector<u32>& sharers_by_pair() const noexcept {
    return sharers_;
  }
  [[nodiscard]] const std::vector<bool>& faulty_by_pair() const noexcept {
    return faulty_;
  }

  /// Flat index of unordered pair {a,b} (a != b) in lexicographic order.
  [[nodiscard]] u32 pair_index(u32 a, u32 b) const;

 private:
  u32 shards_;                 // cluster-owner: immutable
  u32 lanes_;                  // cluster-owner: immutable
  u32 cpl_;                    // cluster-owner: immutable
  std::vector<u32> used_;      // cluster-owner: caller
  std::vector<u32> sharers_;   // cluster-owner: caller
  std::vector<bool> faulty_;   // cluster-owner: caller
  u64 reserved_ = 0;           // cluster-owner: caller
  u64 sharer_total_ = 0;       // cluster-owner: caller
  u32 peak_ = 0;               // cluster-owner: caller
  u64 acquires_ = 0;           // cluster-owner: caller
};

}  // namespace confnet::cluster
