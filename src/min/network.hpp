// Explicit link-graph view of a multistage topology.
//
// The `Network` evaluates its topology's closed-form stage wiring (no
// per-row tables, so it costs O(n) words for any N) and answers the
// structural questions everything upstream needs: link successors and
// predecessors, the unique input->output path (two independent
// implementations: destination-tag and window-greedy), and per-link
// reachability windows.
#pragma once

#include <array>
#include <memory>
// static_check: allow(raw-mutex) std::once_flag one-time init; no lock held
#include <mutex>
#include <vector>

#include "min/topology.hpp"
#include "min/types.hpp"
#include "util/audit.hpp"
#include "util/bitset.hpp"

namespace confnet::min {

/// Per-link input/output reachability sets, computed once per network.
class WindowTable {
 public:
  /// In(level,row): inputs that can reach the link. |In| == 2^level.
  [[nodiscard]] const util::DynBitset& in_set(u32 level, u32 row) const;
  /// Out(level,row): outputs reachable from the link. |Out| == 2^(n-level).
  [[nodiscard]] const util::DynBitset& out_set(u32 level, u32 row) const;

 private:
  friend class Network;
  WindowTable(u32 n, u32 N) : n_(n), N_(N) {}
  u32 n_, N_;
  std::vector<util::DynBitset> in_;   // (n+1)*N entries, level-major
  std::vector<util::DynBitset> out_;
};

class Network {
 public:
  explicit Network(Topology topo);

  [[nodiscard]] Kind kind() const noexcept { return topo_.kind(); }
  [[nodiscard]] u32 n() const noexcept { return topo_.n(); }
  [[nodiscard]] u32 size() const noexcept { return topo_.size(); }
  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }

  /// Total number of links: (n+1) levels of N rows.
  [[nodiscard]] u64 link_count() const noexcept {
    return static_cast<u64>(n() + 1) * size();
  }

  /// Level-(level+1) rows fed by link (level,row); requires level < n.
  [[nodiscard]] std::array<u32, 2> successors(u32 level, u32 row) const;

  /// Level-(level-1) rows feeding link (level,row); requires level >= 1.
  [[nodiscard]] std::array<u32, 2> predecessors(u32 level, u32 row) const;

  /// Index of the stage-`stage` switch whose input side link
  /// (stage-1,row) attaches to. Stages are 1-based; 0 <= result < N/2.
  [[nodiscard]] u32 switch_of_input(u32 stage, u32 row) const;

  /// Index of the stage-`stage` switch whose output side produces link
  /// (stage,row).
  [[nodiscard]] u32 switch_of_output(u32 stage, u32 row) const;

  /// The unique path from input `src` to output `dst` as the row occupied
  /// at every level 0..n, via destination-tag self-routing.
  [[nodiscard]] std::vector<u32> route_rows(u32 src, u32 dst) const;

  /// Same path computed topology-agnostically by greedy descent over the
  /// output windows; used as the oracle for destination-tag correctness.
  [[nodiscard]] std::vector<u32> route_rows_generic(u32 src, u32 dst) const;

  /// Lazily computed reachability windows (thread safe).
  [[nodiscard]] const WindowTable& windows() const;

 private:
  Topology topo_;
  mutable std::once_flag windows_once_;
  mutable std::unique_ptr<WindowTable> windows_;
};

/// Convenience: build topology + network in one call.
[[nodiscard]] inline Network make_network(Kind kind, u32 n) {
  return Network(make_topology(kind, n));
}

}  // namespace confnet::min
