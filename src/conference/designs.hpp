// The two conference-network designs under comparison, as two
// configurations of one fabric-backed implementation,
// FabricConferenceNetwork.
//
// DirectConferenceNetwork — "directly adopt a baseline, an omega, or an
// indirect binary cube network": conferences are realized as ALL_PAIRS
// subnetworks; interstage links carry a configurable number of channels
// (dilation). With dilation d(l) = min(2^l, 2^(n-l)) the design is
// conflict-free for arbitrary disjoint conferences (R1); with d = 1 it
// relies on placement (R2: conflict-free under buddy placement unless
// min::has_block_block_windows; the session audit checks it on live state).
//
// EnhancedCubeNetwork — the Yang (2001) design the abstract describes: an
// indirect binary cube whose internal stage outputs are relayed through
// per-output (n+1)-to-1 multiplexers; a conference placed on an aligned
// block of 2^j ports completes combining at level j inside its own rows
// and taps there, leaving no shared interstage links. It is the same
// fabric with one channel per link and the relay on.
#pragma once

#include <array>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
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
  /// Channels of levels 0..n, the table a FabricState enforces.
  [[nodiscard]] std::span<const u32> channels() const noexcept {
    return {channels_.data(), n_ + 1};
  }
  [[nodiscard]] u32 n() const noexcept { return n_; }
  /// Total interstage channel count (hardware figure for E5).
  [[nodiscard]] u64 total_channels() const;
  [[nodiscard]] const std::string& label() const noexcept { return label_; }

 private:
  /// One channel on every level; the factories widen levels 1..n-1 (0 and
  /// n stay 1: external ports are exclusive by disjointness).
  DilationProfile(u32 n, std::string label);
  u32 n_;
  std::array<u32, min::Network::kMaxStages + 1> channels_;  // levels 0..n
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
  /// must receive exactly the conference's member set. Decided from the
  /// incremental sw::FabricState's per-conference dead-link counters (each
  /// design realizes conferences canonically), without propagating signals.
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

  /// Channels of the design's narrowest interstage link. A buddy
  /// SessionManager shares regions as deep as this (clamped to 2 ..
  /// RegionBook::kMaxCover), as many as the cover bound lets such a link
  /// carry. The default, u32 max, means the design does not say and the
  /// fabric decides each shared window on its links: a decorator that
  /// does not forward this shares to the deepest cover.
  [[nodiscard]] virtual u32 narrowest_channels() const noexcept {
    return std::numeric_limits<u32>::max();
  }

  // --- Live-fault interface ----------------------------------------------
  // Designs that support runtime link faults override this whole group;
  // the defaults model a fault-free fabric (queries report healthy,
  // fault mutations are contract violations).

  [[nodiscard]] virtual bool supports_faults() const noexcept { return false; }

  /// Fail link (level,row); returns the handles of active conferences whose
  /// realization uses it (idempotent: empty when already faulty). Affected
  /// conferences stay active but degraded until the control plane tears
  /// them down — see conf::ControlPlane.
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

/// A design's conference handles. A freed handle is reused (the most
/// recently freed first) before a new one is minted, so every handle stays
/// below the peak number of live conferences and so does the fabric's
/// id-indexed entry table, however many setups a long-lived design serves.
class HandlePool {
 public:
  /// The handle the next take() hands out.
  [[nodiscard]] u32 peek() const noexcept {
    return free_.empty() ? minted_ : free_.back();
  }
  /// Hand out peek(); call once its conference is admitted.
  [[nodiscard]] u32 take() {
    if (free_.empty()) return minted_++;
    const u32 handle = free_.back();
    free_.pop_back();
    return handle;
  }
  void release(u32 handle) { free_.push_back(handle); }
  /// One past the largest handle ever handed out.
  [[nodiscard]] u32 minted() const noexcept { return minted_; }

 private:
  u32 minted_ = 0;
  std::vector<u32> free_;
};

/// The one implementation of the contract above: each conference is a
/// group of one sw::FabricState whose per-level capacity and relay are
/// fixed at construction. The designs the paper compares are its two
/// configurations, DirectConferenceNetwork and EnhancedCubeNetwork below.
class FabricConferenceNetwork : public ConferenceNetworkBase {
 public:
  [[nodiscard]] u32 n() const noexcept override {
    return state_.network().n();
  }
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
  [[nodiscard]] u32 stages_for(u32 handle) const override {
    return relays() ? tap_level(handle) : n();
  }
  [[nodiscard]] bool add_member(u32 handle, u32 port) override;
  [[nodiscard]] bool remove_member(u32 handle, u32 port) override;
  [[nodiscard]] const std::vector<u32>& members_for(u32 handle) const override;
  [[nodiscard]] min::Kind kind() const noexcept override {
    return state_.network().kind();
  }
  [[nodiscard]] u32 narrowest_channels() const noexcept override {
    return state_.cover_limit();
  }

  /// True iff every conference is relayed out at its mux tap level (the
  /// enhanced cube); false when members listen at level n.
  [[nodiscard]] bool relays() const noexcept { return state_.relays(); }
  /// Mux tap level of an active relayed conference (latency figure: it
  /// traverses tap_level stages instead of n).
  [[nodiscard]] u32 tap_level(u32 handle) const;
  /// Highest channel load currently on any link of the level.
  [[nodiscard]] u32 current_level_load(u32 level) const;
  /// Channel load currently on link (level, row).
  [[nodiscard]] u32 current_link_load(u32 level, u32 row) const;
  /// The fabric the conferences are groups of (for checks).
  [[nodiscard]] const sw::FabricState& fabric() const noexcept {
    return state_;
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

 protected:
  /// `dilation` is the per-level capacity; `relay` (indirect cube only)
  /// taps every conference at min::cube_tap_level of its members.
  FabricConferenceNetwork(min::Kind kind, u32 n,
                          const DilationProfile& dilation, bool relay);

 private:
  friend void audit::check_fabric_network(
      const ::confnet::conf::FabricConferenceNetwork&);

  std::string dilation_label_;  // the profile's; the fabric holds its table
  sw::FabricState state_;       // owns the member lists + link loads
  HandlePool handles_;
  SetupError last_error_ = SetupError::kPortBusy;
  // Admission scratch: each mutation builds its member list here and the
  // fabric copies it only once admitted, so a refusal allocates nothing.
  std::vector<u32> scratch_;
};

/// Standard banyan adopted directly: ALL_PAIRS conferences, `dilation`
/// channels per interstage link, no relay.
class DirectConferenceNetwork final : public FabricConferenceNetwork {
 public:
  DirectConferenceNetwork(min::Kind kind, u32 n,
                          const DilationProfile& dilation)
      : FabricConferenceNetwork(kind, n, dilation, false) {}
};

/// Yang's enhanced indirect cube: one channel per link, every conference
/// relayed out at its tap level.
class EnhancedCubeNetwork final : public FabricConferenceNetwork {
 public:
  explicit EnhancedCubeNetwork(u32 n)
      : FabricConferenceNetwork(min::Kind::kIndirectCube, n,
                                DilationProfile::uniform(n, 1), true) {}
};

// Each design owns its fabric and the fabric owns its network, so a design
// is a movable value.
static_assert(std::is_move_constructible_v<DirectConferenceNetwork>);
static_assert(std::is_move_constructible_v<EnhancedCubeNetwork>);

}  // namespace confnet::conf
