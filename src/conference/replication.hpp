// Vertical replication: the classic alternative to link dilation. The
// fabric is r parallel copies ("planes") of a unit-dilation network; every
// conference is carried wholly inside one plane, so two conferences only
// need different planes when their subnetworks share a link. Plane
// assignment is therefore a coloring of the conference conflict graph —
// made explicit here so the analyzer, the admission policy and the cost
// model all reason about the same object.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "conference/designs.hpp"
#include "min/types.hpp"

namespace confnet::conf {

/// Pairwise link-sharing structure of a set of (not necessarily disjoint-
/// port-checked) member sets under ALL_PAIRS realization.
class ConflictGraph {
 public:
  ConflictGraph(min::Kind kind, u32 n,
                const std::vector<std::vector<u32>>& member_sets);

  [[nodiscard]] std::size_t size() const noexcept { return adjacency_.size(); }
  [[nodiscard]] bool conflicts(std::size_t a, std::size_t b) const;
  [[nodiscard]] u32 degree(std::size_t v) const;

  /// Greedy largest-degree-first coloring. colors[v] in [0, color_count).
  struct Coloring {
    std::vector<u32> colors;
    u32 color_count = 0;
  };
  [[nodiscard]] Coloring color() const;

  /// Lower bound on any coloring: the measured peak link multiplicity of
  /// the set (a clique in the graph).
  [[nodiscard]] u32 clique_lower_bound() const noexcept {
    return clique_bound_;
  }

 private:
  std::vector<std::vector<bool>> adjacency_;
  u32 clique_bound_ = 0;
};

/// The replicated design: r unit-dilation planes of one topology, each
/// conference assigned to the first plane with room (online first-fit
/// coloring). Hardware: r fabrics plus per-port 1-to-r demultiplexers and
/// r-to-1 multiplexers (priced in cost::replicated_cost).
class ReplicatedConferenceNetwork final : public ConferenceNetworkBase {
 public:
  ReplicatedConferenceNetwork(min::Kind kind, u32 n, u32 planes);

  [[nodiscard]] u32 n() const noexcept override { return n_; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::optional<u32> setup(
      const std::vector<u32>& members) override;
  [[nodiscard]] SetupError last_error() const noexcept override {
    return last_error_;
  }
  void teardown(u32 handle) override;
  [[nodiscard]] u32 active_count() const noexcept override;
  [[nodiscard]] bool verify_delivery() const override;
  [[nodiscard]] bool verify_delivery_reference() const override;
  [[nodiscard]] bool add_member(u32 handle, u32 port) override;
  [[nodiscard]] bool remove_member(u32 handle, u32 port) override;
  [[nodiscard]] const std::vector<u32>& members_for(u32 handle) const override;

  [[nodiscard]] min::Kind kind() const noexcept override { return kind_; }

  [[nodiscard]] u32 planes() const noexcept {
    return static_cast<u32>(planes_.size());
  }
  /// Plane carrying an active conference.
  [[nodiscard]] u32 plane_of(u32 handle) const;
  /// Conferences currently in each plane.
  [[nodiscard]] std::vector<u32> plane_occupancy() const;

 private:
  u32 n_;
  min::Kind kind_;
  // Each plane is a unit-dilation direct network; the port-busy invariant
  // spans planes (a member port talks into exactly one plane).
  std::vector<DirectConferenceNetwork> planes_;
  std::vector<bool> port_busy_;
  struct Active {
    u32 plane;
    u32 inner_handle;
  };
  std::map<u32, Active> active_;
  HandlePool handles_;
  SetupError last_error_ = SetupError::kPortBusy;
};

}  // namespace confnet::conf
