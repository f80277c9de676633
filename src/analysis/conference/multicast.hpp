// Multicast (one-to-many) connections — the other group-communication
// primitive of the abstract ("messages from one or more sender(s) are
// delivered to a large number of receivers"). A multicast occupies the
// fan-out tree from its source to its receiver set; the conflict question
// mirrors the conference one and gets the same four-way treatment
// (measure / closed form / adversary / exact packing reuse).
#pragma once

#include <vector>

#include "conference/conference.hpp"
#include "min/level_links.hpp"
#include "min/types.hpp"
#include "util/rng.hpp"

namespace confnet::conf {

/// A one-to-many connection. Receivers are sorted and duplicate-free; the
/// source may or may not also be a receiver (loopback monitoring).
class Multicast {
 public:
  Multicast(u32 id, u32 source, std::vector<u32> receivers);

  [[nodiscard]] u32 id() const noexcept { return id_; }
  [[nodiscard]] u32 source() const noexcept { return source_; }
  [[nodiscard]] const std::vector<u32>& receivers() const noexcept {
    return receivers_;
  }

 private:
  u32 id_;
  u32 source_;
  std::vector<u32> receivers_;
};

/// A set of multicasts with distinct sources and pairwise disjoint
/// receiver sets (an output can listen to only one stream).
class MulticastSet {
 public:
  explicit MulticastSet(u32 num_ports);

  void add(Multicast multicast);
  [[nodiscard]] std::size_t size() const noexcept { return multicasts_.size(); }
  [[nodiscard]] const std::vector<Multicast>& multicasts() const noexcept {
    return multicasts_;
  }

 private:
  u32 num_ports_;
  std::vector<bool> source_used_;
  std::vector<bool> receiver_used_;
  std::vector<Multicast> multicasts_;
};

/// The multicast's fan-out tree: rows per level (sorted, unique), the path
/// union from the source to every receiver.
[[nodiscard]] min::LevelLinks multicast_tree_links(
    min::Kind kind, u32 n, u32 source, const std::vector<u32>& receivers);

/// True iff the multicast occupies link (level,row): source in In-window
/// and some receiver in Out-window.
[[nodiscard]] bool multicast_uses_link(min::Kind kind, u32 n, u32 source,
                                       const std::vector<u32>& receivers,
                                       u32 level, u32 row);

/// Per-level maximum link sharing of a multicast set.
struct MulticastProfile {
  std::vector<u32> per_level;
  u32 peak = 0;  // over interstage levels
};
[[nodiscard]] MulticastProfile measure_multicast_multiplicity(
    min::Kind kind, u32 n, const MulticastSet& set);

/// Constructive adversary: min::r1_bound(n, level) single-receiver
/// multicasts all crossing link (level,row); worst-case multicast sharing
/// has the same closed form as conferences.
[[nodiscard]] MulticastSet multicast_adversarial_set(min::Kind kind, u32 n,
                                                     u32 level, u32 row);

}  // namespace confnet::conf
