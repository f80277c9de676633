#include "conference/designs.hpp"

#include <algorithm>

#include "util/bits.hpp"
#include "util/error.hpp"

namespace confnet::conf {

DilationProfile::DilationProfile(u32 n, std::vector<u32> channels,
                                 std::string label)
    : n_(n), channels_(std::move(channels)), label_(std::move(label)) {
  expects(channels_.size() == n + 1, "dilation profile needs n+1 levels");
  channels_.front() = 1;  // external ports are exclusive by disjointness
  channels_.back() = 1;
}

DilationProfile DilationProfile::uniform(u32 n, u32 d) {
  expects(d >= 1, "dilation must be at least 1");
  return DilationProfile(n, std::vector<u32>(n + 1, d),
                         "d=" + std::to_string(d));
}

DilationProfile DilationProfile::full(u32 n) {
  std::vector<u32> ch(n + 1);
  for (u32 l = 0; l <= n; ++l)
    ch[l] = std::min(u32{1} << l, u32{1} << (n - l));
  return DilationProfile(n, std::move(ch), "full");
}

DilationProfile DilationProfile::bounded(u32 n, u32 g) {
  expects(g >= 1, "bounded dilation needs g >= 1");
  std::vector<u32> ch(n + 1);
  for (u32 l = 0; l <= n; ++l)
    ch[l] = std::min({u32{1} << l, u32{1} << (n - l), g});
  return DilationProfile(n, std::move(ch), "g=" + std::to_string(g));
}

u32 DilationProfile::channels(u32 level) const {
  expects(level < channels_.size(), "dilation level out of range");
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
std::vector<u32> dilation_capacity(const DilationProfile& dilation) {
  std::vector<u32> caps(dilation.n() + 1);
  for (u32 l = 0; l <= dilation.n(); ++l) caps[l] = dilation.channels(l);
  return caps;
}

std::vector<u32> with_member(const std::vector<u32>& members, u32 port) {
  std::vector<u32> grown = members;
  grown.insert(std::lower_bound(grown.begin(), grown.end(), port), port);
  return grown;
}

std::vector<u32> without_member(const std::vector<u32>& members, u32 port) {
  std::vector<u32> shrunk = members;
  shrunk.erase(std::lower_bound(shrunk.begin(), shrunk.end(), port));
  return shrunk;
}

/// The stateless-oracle functional check shared by both designs: rebuild
/// every group and re-propagate through Fabric::evaluate with unlimited
/// channels (capacity was enforced at setup, so this reports pure delivery
/// correctness). Evaluated against the design's live fault set, so a
/// degraded group fails the check exactly when a member stops hearing the
/// full conference.
bool verify_via_fabric(const min::Network& net, const sw::FabricState& state) {
  std::vector<sw::GroupRealization> groups;
  groups.reserve(state.group_count());
  state.for_each_group(
      [&](const sw::GroupRealization& g) { groups.push_back(g); });
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
    : net_(min::make_network(kind, n)),
      dilation_(std::move(dilation)),
      state_(net_, dilation_capacity(dilation_)) {
  expects(dilation_.n() == n, "dilation profile size mismatch");
}

std::string DirectConferenceNetwork::name() const {
  return "direct-" + std::string(min::kind_name(net_.kind())) + "(" +
         dilation_.label() + ")";
}

std::optional<u32> DirectConferenceNetwork::setup(
    const std::vector<u32>& members) {
  expects(members.size() >= 2, "conferences need at least two members");
  for (u32 m : members) {
    expects(m < size(), "member out of range");
    if (!state_.port_free(m)) {
      last_error_ = SetupError::kPortBusy;
      return std::nullopt;
    }
  }
  std::vector<u32> sorted = members;
  std::sort(sorted.begin(), sorted.end());
  sw::GroupRealization g;
  g.id = next_handle_;
  g.links = all_pairs_links(net_.kind(), n(), sorted);
  g.members = std::move(sorted);
  if (!state_.links_clear(g.links)) {
    last_error_ = SetupError::kLinkFaulty;
    return std::nullopt;
  }
  if (!state_.try_add(std::move(g))) {
    last_error_ = SetupError::kLinkCapacity;
    return std::nullopt;
  }
  const u32 handle = next_handle_++;
  CONFNET_AUDIT_HOOK(audit::check_direct_network(*this));
  return handle;
}

void DirectConferenceNetwork::teardown(u32 handle) {
  expects(state_.contains(handle), "teardown of unknown conference handle");
  state_.remove(handle);
  CONFNET_AUDIT_HOOK(audit::check_direct_network(*this));
}

bool DirectConferenceNetwork::verify_delivery() const {
  return state_.delivery_ok();
}

bool DirectConferenceNetwork::verify_delivery_reference() const {
  return verify_via_fabric(net_, state_);
}

bool DirectConferenceNetwork::add_member(u32 handle, u32 port) {
  expects(state_.contains(handle), "add_member on unknown handle");
  expects(port < size(), "member out of range");
  if (!state_.port_free(port)) {
    last_error_ = SetupError::kPortBusy;
    return false;
  }
  sw::GroupRealization grown;
  grown.id = handle;
  grown.members = with_member(state_.group(handle).members, port);
  grown.links = all_pairs_links(net_.kind(), n(), grown.members);
  if (!state_.links_clear(grown.links)) {
    last_error_ = SetupError::kLinkFaulty;
    return false;
  }
  if (!state_.try_replace(handle, std::move(grown))) {
    last_error_ = SetupError::kLinkCapacity;
    return false;
  }
  CONFNET_AUDIT_HOOK(audit::check_direct_network(*this));
  return true;
}

bool DirectConferenceNetwork::remove_member(u32 handle, u32 port) {
  expects(state_.contains(handle), "remove_member on unknown handle");
  const std::vector<u32>& members = state_.group(handle).members;
  if (!std::binary_search(members.begin(), members.end(), port)) return false;
  if (members.size() <= 2) return false;  // close instead
  sw::GroupRealization shrunk;
  shrunk.id = handle;
  shrunk.members = without_member(members, port);
  shrunk.links = all_pairs_links(net_.kind(), n(), shrunk.members);
  // An ALL_PAIRS subnetwork of fewer members only releases links, so the
  // swap cannot oversubscribe anything.
  state_.replace(handle, std::move(shrunk));
  CONFNET_AUDIT_HOOK(audit::check_direct_network(*this));
  return true;
}

const std::vector<u32>& DirectConferenceNetwork::members_for(
    u32 handle) const {
  expects(state_.contains(handle), "unknown conference handle");
  return state_.group(handle).members;
}

u32 DirectConferenceNetwork::current_level_load(u32 level) const {
  expects(level <= n(), "level out of range");
  return state_.level_peak_load(level);
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
    : net_(min::make_network(min::Kind::kIndirectCube, n)),
      state_(net_, sw::FabricConfig{1, true, true}) {}

std::string EnhancedCubeNetwork::name() const { return "enhanced-cube"; }

sw::GroupRealization EnhancedCubeNetwork::realize(u32 handle,
                                                  std::vector<u32> members,
                                                  EnhancedRealization real) {
  sw::GroupRealization g;
  g.id = handle;
  g.links = std::move(real.links);
  for (u32 m : members)
    g.taps.push_back(sw::GroupRealization::Tap{m, real.tap_level});
  g.members = std::move(members);
  return g;
}

std::optional<u32> EnhancedCubeNetwork::setup(
    const std::vector<u32>& members) {
  expects(members.size() >= 2, "conferences need at least two members");
  for (u32 m : members) {
    expects(m < size(), "member out of range");
    if (!state_.port_free(m)) {
      last_error_ = SetupError::kPortBusy;
      return std::nullopt;
    }
  }
  std::vector<u32> sorted = members;
  std::sort(sorted.begin(), sorted.end());
  EnhancedRealization real = enhanced_cube_realization(n(), sorted);
  if (!state_.links_clear(real.links)) {
    last_error_ = SetupError::kLinkFaulty;
    return std::nullopt;
  }
  // The enhanced design keeps single-channel links; a conflict means the
  // placement was not aligned (or the fabric is genuinely oversubscribed).
  if (!state_.try_add(realize(next_handle_, std::move(sorted),
                              std::move(real)))) {
    last_error_ = SetupError::kLinkCapacity;
    return std::nullopt;
  }
  const u32 handle = next_handle_++;
  CONFNET_AUDIT_HOOK(audit::check_enhanced_network(*this));
  return handle;
}

void EnhancedCubeNetwork::teardown(u32 handle) {
  expects(state_.contains(handle), "teardown of unknown conference handle");
  state_.remove(handle);
  CONFNET_AUDIT_HOOK(audit::check_enhanced_network(*this));
}

bool EnhancedCubeNetwork::verify_delivery() const {
  return state_.delivery_ok();
}

bool EnhancedCubeNetwork::verify_delivery_reference() const {
  return verify_via_fabric(net_, state_);
}

bool EnhancedCubeNetwork::add_member(u32 handle, u32 port) {
  expects(state_.contains(handle), "add_member on unknown handle");
  expects(port < size(), "member out of range");
  if (!state_.port_free(port)) {
    last_error_ = SetupError::kPortBusy;
    return false;
  }
  std::vector<u32> grown = with_member(state_.group(handle).members, port);
  EnhancedRealization real = enhanced_cube_realization(n(), grown);
  if (!state_.links_clear(real.links)) {
    last_error_ = SetupError::kLinkFaulty;
    return false;
  }
  // A grown conference may also RELEASE links: joining a member outside the
  // old span raises the tap level, but within a span it only adds links.
  // try_replace checks capacity on the gained links only.
  if (!state_.try_replace(handle,
                          realize(handle, std::move(grown), std::move(real)))) {
    last_error_ = SetupError::kLinkCapacity;
    return false;
  }
  CONFNET_AUDIT_HOOK(audit::check_enhanced_network(*this));
  return true;
}

bool EnhancedCubeNetwork::remove_member(u32 handle, u32 port) {
  expects(state_.contains(handle), "remove_member on unknown handle");
  const std::vector<u32>& members = state_.group(handle).members;
  if (!std::binary_search(members.begin(), members.end(), port)) return false;
  if (members.size() <= 2) return false;  // close instead
  std::vector<u32> shrunk = without_member(members, port);
  EnhancedRealization real = enhanced_cube_realization(n(), shrunk);
  // Shrinking never adds links under a fixed tap level; new-only links can
  // only appear when the tap level drops, freeing more than it takes within
  // the conference's own rows — so the unconditional swap is safe.
  state_.replace(handle, realize(handle, std::move(shrunk), std::move(real)));
  CONFNET_AUDIT_HOOK(audit::check_enhanced_network(*this));
  return true;
}

const std::vector<u32>& EnhancedCubeNetwork::members_for(u32 handle) const {
  expects(state_.contains(handle), "unknown conference handle");
  return state_.group(handle).members;
}

u32 EnhancedCubeNetwork::tap_level(u32 handle) const {
  expects(state_.contains(handle), "unknown conference handle");
  const sw::GroupRealization& g = state_.group(handle);
  ensures(!g.taps.empty(), "enhanced group must carry taps");
  return g.taps.front().tap_level;
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
/// in range, and — via check_fabric_state — load and port-ownership
/// accounting consistent with group membership and the stateless Fabric
/// oracle.
void check_design_state(const sw::FabricState& state, conf::u32 n,
                        conf::u32 next_handle, std::string_view sub) {
  using conf::u32;
  const u32 N = u32{1} << n;
  std::vector<std::vector<u32>> member_sets;
  state.for_each_group([&](const sw::GroupRealization& g) {
    require(g.id < next_handle, sub, "conference handle from the future");
    require(g.members.size() >= 2, sub, "active conference below two members");
    member_sets.push_back(g.members);
    for (u32 m : g.members)
      require(m < N, sub, "active member row out of range");
    require(g.links.size() == static_cast<std::size_t>(n) + 1, sub,
            "active link set has wrong level count");
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
  check_design_state(net.state_, net.n(), net.next_handle_, kSub);
  for (u32 level = 0; level <= net.n(); ++level)
    require(net.state_.capacity()[level] == net.dilation_.channels(level),
            kSub, "fabric capacity diverges from the dilation profile");
  // Deep shape check: the stored links are exactly the ALL_PAIRS
  // subnetwork of the stored members, with no relay taps.
  net.state_.for_each_group([&](const sw::GroupRealization& g) {
    require(g.taps.empty(), kSub, "direct design must not carry relay taps");
    require(g.links == conf::all_pairs_links(net.kind(), net.n(), g.members),
            kSub, "stored links diverge from the ALL_PAIRS recomputation");
  });
}

void check_enhanced_network(const conf::EnhancedCubeNetwork& net) {
  constexpr std::string_view kSub = "designs";
  using conf::u32;
  check_design_state(net.state_, net.n(), net.next_handle_, kSub);
  std::vector<std::vector<std::vector<u32>>> group_links;
  net.state_.for_each_group([&](const sw::GroupRealization& g) {
    // The stored realization is exactly the recomputed one (taps included).
    const conf::EnhancedRealization fresh =
        conf::enhanced_cube_realization(net.n(), g.members);
    require(g.taps.size() == g.members.size(), kSub,
            "enhanced group must tap every member");
    for (const auto& tap : g.taps)
      require(tap.tap_level == fresh.tap_level, kSub,
              "stored tap level diverges from the recomputed completion level");
    require(g.links == fresh.links, kSub,
            "stored links diverge from the enhanced-cube recomputation");
    group_links.push_back(g.links);
  });
  // The paper's claim, machine-checked on live state: enhanced-design
  // conferences never share an interstage link.
  check_link_disjoint(group_links, net.n() + 1, net.size(), kSub);
}

}  // namespace confnet::audit
