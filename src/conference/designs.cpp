#include "conference/designs.hpp"

#include <algorithm>

#include "conference/multiplicity.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace confnet::conf {

DilationProfile::DilationProfile(u32 n, std::string label)
    : n_(n), label_(std::move(label)) {
  expects(n >= 1 && n <= min::Network::kMaxStages,
          "dilation profile needs 1 <= n <= Network::kMaxStages");
  channels_.fill(1);
}

DilationProfile DilationProfile::uniform(u32 n, u32 d) {
  expects(d >= 1, "dilation must be at least 1");
  DilationProfile p(n, "d=" + std::to_string(d));
  for (u32 l = 1; l < n; ++l) p.channels_[l] = d;
  return p;
}

DilationProfile DilationProfile::full(u32 n) {
  DilationProfile p(n, "full");
  for (u32 l = 1; l < n; ++l)
    p.channels_[l] = std::min(u32{1} << l, u32{1} << (n - l));
  return p;
}

DilationProfile DilationProfile::bounded(u32 n, u32 g) {
  expects(g >= 1, "bounded dilation needs g >= 1");
  DilationProfile p(n, "g=" + std::to_string(g));
  for (u32 l = 1; l < n; ++l)
    p.channels_[l] = std::min({u32{1} << l, u32{1} << (n - l), g});
  return p;
}

u32 DilationProfile::channels(u32 level) const {
  expects(level <= n_, "dilation level out of range");
  return channels_[level];
}

u64 DilationProfile::total_channels() const {
  u64 total = 0;
  const u64 N = u64{1} << n_;
  for (u32 l = 1; l < n_; ++l) total += N * channels_[l];
  return total;
}

std::vector<u32> ConferenceNetworkBase::fail_link(u32 level, u32 row) {
  (void)level;
  (void)row;
  expects(false, "design does not support live link faults");
  return {};
}

std::vector<u32> ConferenceNetworkBase::repair_link(u32 level, u32 row) {
  (void)level;
  (void)row;
  expects(false, "design does not support live link faults");
  return {};
}

// ---------------------------------------------------------------------------
// DirectConferenceNetwork
// ---------------------------------------------------------------------------

namespace {
/// `members` with `port` inserted (grow) or erased, written into `out`.
void edit_members(const std::vector<u32>& members, u32 port, bool grow,
                  std::vector<u32>& out) {
  out.assign(members.begin(), members.end());
  const auto at = std::lower_bound(out.begin(), out.end(), port);
  if (grow)
    out.insert(at, port);
  else
    out.erase(at);
}

/// Expect `members` to name at least two in-range ports; false (with
/// kPortBusy recorded) when one is already in a conference.
bool ports_free(const sw::FabricState& state, const std::vector<u32>& members,
                SetupError& error) {
  expects(members.size() >= 2, "conferences need at least two members");
  for (u32 m : members) {
    expects(m < state.network().size(), "member out of range");
    if (!state.port_free(m)) {
      error = SetupError::kPortBusy;
      return false;
    }
  }
  return true;
}

/// True iff the fabric admitted; otherwise records why it refused.
bool admitted(sw::Admission verdict, SetupError& error) {
  if (verdict == sw::Admission::kLinkFaulty) error = SetupError::kLinkFaulty;
  if (verdict == sw::Admission::kLinkCapacity)
    error = SetupError::kLinkCapacity;
  return verdict == sw::Admission::kAdmitted;
}

/// The stateless-oracle functional check shared by both designs:
/// materialize every group and re-propagate through Fabric::evaluate with
/// unlimited channels (capacity was enforced at setup, so this reports
/// pure delivery correctness). Evaluated against the design's live fault
/// set, so a degraded group fails the check exactly when a member stops
/// hearing the full conference.
bool verify_via_fabric(const sw::FabricState& state) {
  const min::Network& net = state.network();
  std::vector<sw::GroupRealization> groups;
  groups.reserve(state.group_count());
  state.for_each_group(
      [&](u32 id) { groups.push_back(state.realization(id)); });
  const sw::Fabric fabric(net,
                          sw::FabricConfig{net.size(), true, true});
  const sw::EvalReport report = fabric.evaluate(groups, &state.faults());
  if (!report.ok()) return false;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    for (std::size_t mi = 0; mi < groups[gi].members.size(); ++mi) {
      if (report.delivered[gi][mi].values() != groups[gi].members)
        return false;
    }
  }
  return true;
}
}  // namespace

DirectConferenceNetwork::DirectConferenceNetwork(min::Kind kind, u32 n,
                                                 DilationProfile dilation)
    : dilation_(std::move(dilation)),
      state_(min::Network(kind, n), dilation_.channels()) {
  expects(dilation_.n() == n, "dilation profile size mismatch");
}

std::string DirectConferenceNetwork::name() const {
  return "direct-" + std::string(min::kind_name(kind())) + "(" +
         dilation_.label() + ")";
}

std::optional<u32> DirectConferenceNetwork::setup(
    const std::vector<u32>& members) {
  if (!ports_free(state_, members, last_error_)) return std::nullopt;
  scratch_.assign(members.begin(), members.end());
  std::sort(scratch_.begin(), scratch_.end());
  if (!admitted(state_.try_add(handles_.peek(), scratch_), last_error_))
    return std::nullopt;
  const u32 handle = handles_.take();
  CONFNET_AUDIT_HOOK(audit::check_direct_network(*this));
  return handle;
}

void DirectConferenceNetwork::teardown(u32 handle) {
  expects(state_.contains(handle), "teardown of unknown conference handle");
  state_.remove(handle);
  handles_.release(handle);
  CONFNET_AUDIT_HOOK(audit::check_direct_network(*this));
}

bool DirectConferenceNetwork::verify_delivery() const {
  return state_.delivery_ok();
}

bool DirectConferenceNetwork::verify_delivery_reference() const {
  return verify_via_fabric(state_);
}

bool DirectConferenceNetwork::add_member(u32 handle, u32 port) {
  expects(state_.contains(handle), "add_member on unknown handle");
  expects(port < size(), "member out of range");
  if (!state_.port_free(port)) {
    last_error_ = SetupError::kPortBusy;
    return false;
  }
  edit_members(state_.members(handle), port, true, scratch_);
  if (!admitted(state_.try_replace(handle, scratch_), last_error_))
    return false;
  CONFNET_AUDIT_HOOK(audit::check_direct_network(*this));
  return true;
}

bool DirectConferenceNetwork::remove_member(u32 handle, u32 port) {
  expects(state_.contains(handle), "remove_member on unknown handle");
  const std::vector<u32>& members = state_.members(handle);
  if (!std::binary_search(members.begin(), members.end(), port)) return false;
  if (members.size() <= 2) return false;  // close instead
  edit_members(members, port, false, scratch_);
  // An ALL_PAIRS subnetwork of fewer members only releases links, so the
  // swap cannot oversubscribe anything.
  state_.replace(handle, scratch_);
  CONFNET_AUDIT_HOOK(audit::check_direct_network(*this));
  return true;
}

const std::vector<u32>& DirectConferenceNetwork::members_for(
    u32 handle) const {
  expects(state_.contains(handle), "unknown conference handle");
  return state_.members(handle);
}

u32 DirectConferenceNetwork::current_level_load(u32 level) const {
  expects(level <= n(), "level out of range");
  return state_.level_peak_load(level);
}

u32 DirectConferenceNetwork::current_link_load(u32 level, u32 row) const {
  return state_.load_at(level, row);
}

std::vector<u32> DirectConferenceNetwork::fail_link(u32 level, u32 row) {
  auto touched = state_.fail_link(level, row);
  CONFNET_AUDIT_HOOK(audit::check_direct_network(*this));
  return touched;
}

std::vector<u32> DirectConferenceNetwork::repair_link(u32 level, u32 row) {
  auto touched = state_.repair_link(level, row);
  CONFNET_AUDIT_HOOK(audit::check_direct_network(*this));
  return touched;
}

// ---------------------------------------------------------------------------
// EnhancedCubeNetwork
// ---------------------------------------------------------------------------

EnhancedCubeNetwork::EnhancedCubeNetwork(u32 n)
    : state_(min::Network(min::Kind::kIndirectCube, n),
             sw::FabricConfig{1, true, true}) {}

std::string EnhancedCubeNetwork::name() const { return "enhanced-cube"; }

std::optional<u32> EnhancedCubeNetwork::setup(
    const std::vector<u32>& members) {
  if (!ports_free(state_, members, last_error_)) return std::nullopt;
  scratch_.assign(members.begin(), members.end());
  std::sort(scratch_.begin(), scratch_.end());
  // The enhanced design keeps single-channel links; a conflict means the
  // placement was not aligned (or the fabric is genuinely oversubscribed).
  if (!admitted(state_.try_add(handles_.peek(), scratch_, /*relay=*/true),
                last_error_))
    return std::nullopt;
  const u32 handle = handles_.take();
  CONFNET_AUDIT_HOOK(audit::check_enhanced_network(*this));
  return handle;
}

void EnhancedCubeNetwork::teardown(u32 handle) {
  expects(state_.contains(handle), "teardown of unknown conference handle");
  state_.remove(handle);
  handles_.release(handle);
  CONFNET_AUDIT_HOOK(audit::check_enhanced_network(*this));
}

bool EnhancedCubeNetwork::verify_delivery() const {
  return state_.delivery_ok();
}

bool EnhancedCubeNetwork::verify_delivery_reference() const {
  return verify_via_fabric(state_);
}

bool EnhancedCubeNetwork::add_member(u32 handle, u32 port) {
  expects(state_.contains(handle), "add_member on unknown handle");
  expects(port < size(), "member out of range");
  if (!state_.port_free(port)) {
    last_error_ = SetupError::kPortBusy;
    return false;
  }
  edit_members(state_.members(handle), port, true, scratch_);
  // A grown conference may also RELEASE links: joining a member outside the
  // old span raises the tap level, but within a span it only adds links.
  // try_replace checks capacity on the gained links only.
  if (!admitted(state_.try_replace(handle, scratch_), last_error_))
    return false;
  CONFNET_AUDIT_HOOK(audit::check_enhanced_network(*this));
  return true;
}

bool EnhancedCubeNetwork::remove_member(u32 handle, u32 port) {
  expects(state_.contains(handle), "remove_member on unknown handle");
  const std::vector<u32>& members = state_.members(handle);
  if (!std::binary_search(members.begin(), members.end(), port)) return false;
  if (members.size() <= 2) return false;  // close instead
  edit_members(members, port, false, scratch_);
  // Shrinking never adds links under a fixed tap level; new-only links can
  // only appear when the tap level drops, freeing more than it takes within
  // the conference's own rows — so the unconditional swap is safe.
  state_.replace(handle, scratch_);
  CONFNET_AUDIT_HOOK(audit::check_enhanced_network(*this));
  return true;
}

const std::vector<u32>& EnhancedCubeNetwork::members_for(u32 handle) const {
  expects(state_.contains(handle), "unknown conference handle");
  return state_.members(handle);
}

u32 EnhancedCubeNetwork::tap_level(u32 handle) const {
  expects(state_.contains(handle), "unknown conference handle");
  const u32 level = state_.tap_level(handle);
  ensures(level != sw::GroupRealization::kNoTap,
          "enhanced group must carry a relay tap");
  return level;
}

std::vector<u32> EnhancedCubeNetwork::fail_link(u32 level, u32 row) {
  auto touched = state_.fail_link(level, row);
  CONFNET_AUDIT_HOOK(audit::check_enhanced_network(*this));
  return touched;
}

std::vector<u32> EnhancedCubeNetwork::repair_link(u32 level, u32 row) {
  auto touched = state_.repair_link(level, row);
  CONFNET_AUDIT_HOOK(audit::check_enhanced_network(*this));
  return touched;
}

}  // namespace confnet::conf

namespace confnet::audit {

namespace {

/// Shared portion of the two design audits: member sets disjoint, handles
/// in range, and — via check_fabric_state — link loads and the busy-port
/// set consistent with group membership and the stateless Fabric oracle.
void check_design_state(const sw::FabricState& state, conf::u32 n,
                        conf::u32 next_handle, std::string_view sub) {
  using conf::u32;
  const u32 N = u32{1} << n;
  std::vector<std::vector<u32>> member_sets;
  state.for_each_group([&](u32 id) {
    require(id < next_handle, sub, "conference handle from the future");
    const std::vector<u32>& members = state.members(id);
    require(members.size() >= 2, sub, "active conference below two members");
    member_sets.push_back(members);
    for (u32 m : members)
      require(m < N, sub, "active member row out of range");
  });
  check_disjoint_memberships(member_sets, N, sub);
  // Both designs admit only within capacity, so the incremental overflow
  // counter must read zero on live state.
  require(state.overflowing_links() == 0, sub,
          "admitted conferences exceed link channel capacity");
  check_fabric_state(state);
}

}  // namespace

void check_direct_network(const conf::DirectConferenceNetwork& net) {
  constexpr std::string_view kSub = "designs";
  using conf::u32;
  check_design_state(net.state_, net.n(), net.handles_.minted(), kSub);
  for (u32 level = 0; level <= net.n(); ++level) {
    require(net.state_.capacity()[level] == net.dilation_.channels(level),
            kSub, "fabric capacity diverges from the dilation profile");
    // R1 on live state: at most min(2^l, 2^(n-l)) disjoint ALL_PAIRS
    // conferences share a level-l link, whatever the dilation allows.
    require(net.state_.level_peak_load(level) <=
                conf::theoretical_max(net.n(), level),
            kSub, "a link carries more conferences than R1 allows");
  }
  net.state_.for_each_group([&](u32 id) {
    require(net.state_.tap_level(id) == sw::GroupRealization::kNoTap, kSub,
            "direct design must not carry a relay tap");
  });
}

void check_enhanced_network(const conf::EnhancedCubeNetwork& net) {
  constexpr std::string_view kSub = "designs";
  using conf::u32;
  check_design_state(net.state_, net.n(), net.handles_.minted(), kSub);
  std::vector<std::vector<std::vector<u32>>> group_links;
  net.state_.for_each_group([&](u32 id) {
    // The realization the fabric derives is the enhanced-cube one.
    const sw::GroupRealization g = net.state_.realization(id);
    const conf::EnhancedRealization fresh =
        conf::enhanced_cube_realization(net.n(), g.members);
    require(g.tap_level == fresh.tap_level && g.links == fresh.links, kSub,
            "fabric realization diverges from the enhanced-cube one");
    group_links.push_back(g.links.nested());
  });
  // The paper's claim, machine-checked on live state: enhanced-design
  // conferences never share an interstage link.
  check_link_disjoint(group_links, net.n() + 1, net.size(), kSub);
}

}  // namespace confnet::audit
