// The two conference-network designs under comparison.
//
// DirectConferenceNetwork — "directly adopt a baseline, an omega, or an
// indirect binary cube network": conferences are realized as ALL_PAIRS
// subnetworks; interstage links carry a configurable number of channels
// (dilation). With dilation d(l) = min(2^l, 2^(n-l)) the design is
// conflict-free for arbitrary disjoint conferences (R1); with d = 1 it
// relies on placement (R2: conflict-free for omega/cube/butterfly under
// buddy placement).
//
// EnhancedCubeNetwork — the Yang (2001) design the abstract describes: an
// indirect binary cube whose internal stage outputs are relayed through
// per-output (n+1)-to-1 multiplexers; a conference placed on an aligned
// block of 2^j ports completes combining at level j inside its own rows
// and taps there, leaving no shared interstage links.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "conference/conference.hpp"
#include "conference/subnetwork.hpp"
#include "min/network.hpp"
#include "switchmod/fabric.hpp"
#include "switchmod/fabric_state.hpp"
#include "util/audit.hpp"

namespace confnet::conf {

/// Why a setup attempt was refused.
enum class SetupError : std::uint8_t {
  kPortBusy,       // a requested member port is already in a conference
  kLinkCapacity,   // an interstage link would exceed its channel count
  kLinkFaulty,     // the realization would cross a live faulty link
};

/// Per-level interstage channel capacities.
class DilationProfile {
 public:
  /// d channels on every interstage level.
  [[nodiscard]] static DilationProfile uniform(u32 n, u32 d);
  /// min(2^l, 2^(n-l)) channels — nonblocking for arbitrary placement.
  [[nodiscard]] static DilationProfile full(u32 n);
  /// min(2^l, 2^(n-l), g) channels — nonblocking for at most g conferences.
  [[nodiscard]] static DilationProfile bounded(u32 n, u32 g);

  [[nodiscard]] u32 channels(u32 level) const;
  [[nodiscard]] u32 n() const noexcept { return n_; }
  /// Total interstage channel count (hardware figure for E5).
  [[nodiscard]] u64 total_channels() const;
  [[nodiscard]] const std::string& label() const noexcept { return label_; }

 private:
  DilationProfile(u32 n, std::vector<u32> channels, std::string label);
  u32 n_;
  std::vector<u32> channels_;  // levels 0..n; 0 and n forced to 1
  std::string label_;
};

/// Common interface used by the session manager and the simulator.
class ConferenceNetworkBase {
 public:
  virtual ~ConferenceNetworkBase() = default;

  [[nodiscard]] virtual u32 n() const noexcept = 0;
  [[nodiscard]] u32 size() const noexcept { return u32{1} << n(); }
  [[nodiscard]] virtual std::string name() const = 0;

  /// Attempt to set up a conference on the given member ports. Returns a
  /// handle on success.
  [[nodiscard]] virtual std::optional<u32> setup(
      const std::vector<u32>& members) = 0;
  [[nodiscard]] virtual SetupError last_error() const noexcept = 0;

  virtual void teardown(u32 handle) = 0;

  [[nodiscard]] virtual u32 active_count() const noexcept = 0;

  /// Evaluate the fabric functionally: every active conference's members
  /// must receive exactly the conference's member set. Served from the
  /// incremental sw::FabricState — cheap when nothing changed since the
  /// last check.
  [[nodiscard]] virtual bool verify_delivery() const = 0;

  /// Same verdict via the stateless `sw::Fabric::evaluate` oracle (full
  /// rebuild + re-propagation). The slow reference path kept for
  /// equivalence tests and benchmark comparisons.
  [[nodiscard]] virtual bool verify_delivery_reference() const {
    return verify_delivery();
  }

  /// Stages a signal of this conference traverses before delivery (latency
  /// proxy). Direct designs always cross all n stages; the enhanced design
  /// exits at its mux tap level.
  [[nodiscard]] virtual u32 stages_for(u32 handle) const {
    (void)handle;
    return n();
  }

  /// Dynamic join: grow an active conference by one member. Returns false
  /// (and leaves the conference untouched) when the port is busy or the
  /// grown subnetwork would exceed link capacity.
  [[nodiscard]] virtual bool add_member(u32 handle, u32 port) = 0;

  /// Dynamic leave: shrink an active conference by one member. Refuses
  /// (returns false) when the member is not in the conference or the
  /// conference would drop below two members (close it instead).
  [[nodiscard]] virtual bool remove_member(u32 handle, u32 port) = 0;

  /// Members of an active conference.
  [[nodiscard]] virtual const std::vector<u32>& members_for(
      u32 handle) const = 0;

  /// Underlying MIN topology (drives fault-path algebra such as
  /// min::connectivity on the design's live fault set).
  [[nodiscard]] virtual min::Kind kind() const noexcept = 0;

  // --- Live-fault interface ----------------------------------------------
  // Designs that support runtime link faults override this whole group;
  // the defaults model a fault-free fabric (queries report healthy,
  // fault mutations are contract violations).

  [[nodiscard]] virtual bool supports_faults() const noexcept { return false; }

  /// Fail link (level,row); returns the handles of active conferences whose
  /// realization uses it (idempotent: empty when already faulty). Affected
  /// conferences stay active but degraded until the control plane tears
  /// them down — see conf::RecoveryCoordinator.
  [[nodiscard]] virtual std::vector<u32> fail_link(u32 level, u32 row);

  /// Repair link (level,row); returns the handles of conferences touching
  /// the repaired link.
  virtual std::vector<u32> repair_link(u32 level, u32 row);

  [[nodiscard]] virtual bool link_faulty(u32 level, u32 row) const {
    (void)level;
    (void)row;
    return false;
  }

  /// The design's live fault set, or nullptr when the design has no fault
  /// support.
  [[nodiscard]] virtual const min::FaultSet* faults() const noexcept {
    return nullptr;
  }

  /// True iff the conference's realization avoids every live faulty link.
  [[nodiscard]] virtual bool conference_survives(u32 handle) const {
    (void)handle;
    return true;
  }
};

class DirectConferenceNetwork final : public ConferenceNetworkBase {
 public:
  DirectConferenceNetwork(min::Kind kind, u32 n, DilationProfile dilation);

  [[nodiscard]] u32 n() const noexcept override { return net_.n(); }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::optional<u32> setup(
      const std::vector<u32>& members) override;
  [[nodiscard]] SetupError last_error() const noexcept override {
    return last_error_;
  }
  void teardown(u32 handle) override;
  [[nodiscard]] u32 active_count() const noexcept override {
    return state_.group_count();
  }
  [[nodiscard]] bool verify_delivery() const override;
  [[nodiscard]] bool verify_delivery_reference() const override;
  [[nodiscard]] bool add_member(u32 handle, u32 port) override;
  [[nodiscard]] bool remove_member(u32 handle, u32 port) override;
  [[nodiscard]] const std::vector<u32>& members_for(u32 handle) const override;

  [[nodiscard]] const DilationProfile& dilation() const noexcept {
    return dilation_;
  }
  [[nodiscard]] min::Kind kind() const noexcept override {
    return net_.kind();
  }
  /// Highest channel load currently on any link of the level.
  [[nodiscard]] u32 current_level_load(u32 level) const;

  [[nodiscard]] bool supports_faults() const noexcept override { return true; }
  [[nodiscard]] std::vector<u32> fail_link(u32 level, u32 row) override;
  std::vector<u32> repair_link(u32 level, u32 row) override;
  [[nodiscard]] bool link_faulty(u32 level, u32 row) const override {
    return state_.link_faulty(level, row);
  }
  [[nodiscard]] const min::FaultSet* faults() const noexcept override {
    return &state_.faults();
  }
  [[nodiscard]] bool conference_survives(u32 handle) const override {
    return state_.group_survives(handle);
  }

 private:
  friend void audit::check_direct_network(const ::confnet::conf::DirectConferenceNetwork&);

  min::Network net_;
  DilationProfile dilation_;
  sw::FabricState state_;  // owns the active realizations + link loads
  u32 next_handle_ = 0;
  SetupError last_error_ = SetupError::kPortBusy;
};

class EnhancedCubeNetwork final : public ConferenceNetworkBase {
 public:
  explicit EnhancedCubeNetwork(u32 n);

  [[nodiscard]] u32 n() const noexcept override { return net_.n(); }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::optional<u32> setup(
      const std::vector<u32>& members) override;
  [[nodiscard]] SetupError last_error() const noexcept override {
    return last_error_;
  }
  void teardown(u32 handle) override;
  [[nodiscard]] u32 active_count() const noexcept override {
    return state_.group_count();
  }
  [[nodiscard]] bool verify_delivery() const override;
  [[nodiscard]] bool verify_delivery_reference() const override;
  [[nodiscard]] bool add_member(u32 handle, u32 port) override;
  [[nodiscard]] bool remove_member(u32 handle, u32 port) override;
  [[nodiscard]] const std::vector<u32>& members_for(u32 handle) const override;

  /// Mux tap level of an active conference (latency figure: a conference
  /// traverses tap_level stages instead of n).
  [[nodiscard]] u32 tap_level(u32 handle) const;

  [[nodiscard]] u32 stages_for(u32 handle) const override {
    return tap_level(handle);
  }

  [[nodiscard]] min::Kind kind() const noexcept override {
    return net_.kind();
  }
  [[nodiscard]] bool supports_faults() const noexcept override { return true; }
  [[nodiscard]] std::vector<u32> fail_link(u32 level, u32 row) override;
  std::vector<u32> repair_link(u32 level, u32 row) override;
  [[nodiscard]] bool link_faulty(u32 level, u32 row) const override {
    return state_.link_faulty(level, row);
  }
  [[nodiscard]] const min::FaultSet* faults() const noexcept override {
    return &state_.faults();
  }
  [[nodiscard]] bool conference_survives(u32 handle) const override {
    return state_.group_survives(handle);
  }

 private:
  friend void audit::check_enhanced_network(const ::confnet::conf::EnhancedCubeNetwork&);

  [[nodiscard]] static sw::GroupRealization realize(
      u32 handle, std::vector<u32> members, EnhancedRealization real);

  min::Network net_;
  sw::FabricState state_;  // owns the active realizations + link loads
  u32 next_handle_ = 0;
  SetupError last_error_ = SetupError::kPortBusy;
};

}  // namespace confnet::conf
