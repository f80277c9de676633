#include "conference/designs.hpp"

#include <algorithm>

#include "min/windows.hpp"
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
    p.channels_[l] = min::r1_bound(n, l);
  return p;
}

DilationProfile DilationProfile::bounded(u32 n, u32 g) {
  expects(g >= 1, "bounded dilation needs g >= 1");
  DilationProfile p(n, "g=" + std::to_string(g));
  for (u32 l = 1; l < n; ++l)
    p.channels_[l] = std::min(min::r1_bound(n, l), g);
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

/// True iff the fabric admitted; otherwise records why it refused.
bool admitted(sw::Admission verdict, SetupError& error) {
  if (verdict == sw::Admission::kLinkFaulty) error = SetupError::kLinkFaulty;
  if (verdict == sw::Admission::kLinkCapacity)
    error = SetupError::kLinkCapacity;
  return verdict == sw::Admission::kAdmitted;
}
}  // namespace

FabricConferenceNetwork::FabricConferenceNetwork(
    min::Kind kind, u32 n, const DilationProfile& dilation, bool relay)
    : dilation_label_(dilation.label()),
      state_(min::Network(kind, n), dilation.channels(), relay) {
  expects(dilation.n() == n, "dilation profile size mismatch");
}

std::string FabricConferenceNetwork::name() const {
  if (relays()) return "enhanced-cube";
  return "direct-" + std::string(min::kind_name(kind())) + "(" +
         dilation_label_ + ")";
}

std::optional<u32> FabricConferenceNetwork::setup(
    const std::vector<u32>& members) {
  expects(members.size() >= 2, "conferences need at least two members");
  for (u32 m : members) {
    expects(m < size(), "member out of range");
    if (!state_.port_free(m)) {
      last_error_ = SetupError::kPortBusy;
      return std::nullopt;
    }
  }
  scratch_.assign(members.begin(), members.end());
  std::sort(scratch_.begin(), scratch_.end());
  // With the relay on, links keep one channel: a conflict means the
  // placement was not aligned (or the fabric is genuinely oversubscribed).
  if (!admitted(state_.try_add(handles_.peek(), scratch_), last_error_))
    return std::nullopt;
  const u32 handle = handles_.take();
  CONFNET_AUDIT_HOOK(audit::check_fabric_network(*this));
  return handle;
}

void FabricConferenceNetwork::teardown(u32 handle) {
  expects(state_.contains(handle), "teardown of unknown conference handle");
  state_.remove(handle);
  handles_.release(handle);
  CONFNET_AUDIT_HOOK(audit::check_fabric_network(*this));
}

bool FabricConferenceNetwork::verify_delivery() const {
  return state_.delivery_ok();
}

// The stateless oracle: materialize every group and re-propagate through
// Fabric::evaluate with unlimited channels (capacity was enforced at
// setup, so this reports pure delivery correctness). Evaluated against
// the live fault set, so a degraded group fails the check exactly when a
// member stops hearing the full conference.
bool FabricConferenceNetwork::verify_delivery_reference() const {
  std::vector<sw::GroupRealization> groups;
  groups.reserve(state_.group_count());
  state_.for_each_group(
      [&](u32 id) { groups.push_back(state_.realization(id)); });
  const sw::Fabric fabric(state_.network(),
                          sw::FabricConfig{size(), true, true});
  const sw::EvalReport report = fabric.evaluate(groups, &state_.faults());
  if (!report.ok()) return false;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    for (std::size_t mi = 0; mi < groups[gi].members.size(); ++mi) {
      if (report.delivered[gi][mi].values() != groups[gi].members)
        return false;
    }
  }
  return true;
}

bool FabricConferenceNetwork::add_member(u32 handle, u32 port) {
  expects(state_.contains(handle), "add_member on unknown handle");
  expects(port < size(), "member out of range");
  if (!state_.port_free(port)) {
    last_error_ = SetupError::kPortBusy;
    return false;
  }
  edit_members(state_.members(handle), port, true, scratch_);
  // A relayed conference that grows outside its old span raises its tap
  // level and may also release links; try_replace checks capacity on the
  // gained links only.
  if (!admitted(state_.try_replace(handle, scratch_), last_error_))
    return false;
  CONFNET_AUDIT_HOOK(audit::check_fabric_network(*this));
  return true;
}

bool FabricConferenceNetwork::remove_member(u32 handle, u32 port) {
  expects(state_.contains(handle), "remove_member on unknown handle");
  const std::vector<u32>& members = state_.members(handle);
  if (!std::binary_search(members.begin(), members.end(), port)) return false;
  if (members.size() <= 2) return false;  // close instead
  edit_members(members, port, false, scratch_);
  // A subnetwork of fewer members only releases links under a fixed tap
  // level; a relayed conference whose tap level drops gains links only
  // inside its own rows, freeing more than it takes. So the unconditional
  // swap cannot oversubscribe anything.
  state_.replace(handle, scratch_);
  CONFNET_AUDIT_HOOK(audit::check_fabric_network(*this));
  return true;
}

const std::vector<u32>& FabricConferenceNetwork::members_for(
    u32 handle) const {
  expects(state_.contains(handle), "unknown conference handle");
  return state_.members(handle);
}

u32 FabricConferenceNetwork::tap_level(u32 handle) const {
  expects(state_.contains(handle), "unknown conference handle");
  const u32 level = state_.tap_level(handle);
  ensures(level != sw::GroupRealization::kNoTap,
          "tap level of a conference without a relay tap");
  return level;
}

u32 FabricConferenceNetwork::current_level_load(u32 level) const {
  expects(level <= n(), "level out of range");
  return state_.level_peak_load(level);
}

u32 FabricConferenceNetwork::current_link_load(u32 level, u32 row) const {
  return state_.load_at(level, row);
}

std::vector<u32> FabricConferenceNetwork::fail_link(u32 level, u32 row) {
  auto touched = state_.fail_link(level, row);
  CONFNET_AUDIT_HOOK(audit::check_fabric_network(*this));
  return touched;
}

std::vector<u32> FabricConferenceNetwork::repair_link(u32 level, u32 row) {
  auto touched = state_.repair_link(level, row);
  CONFNET_AUDIT_HOOK(audit::check_fabric_network(*this));
  return touched;
}

}  // namespace confnet::conf

namespace confnet::audit {

void check_fabric_network(const conf::FabricConferenceNetwork& net) {
  constexpr std::string_view kSub = "designs";
  using conf::u32;
  const sw::FabricState& state = net.state_;
  std::vector<std::vector<u32>> member_sets;
  std::vector<std::vector<std::vector<u32>>> group_links;
  state.for_each_group([&](u32 id) {
    require(id < net.handles_.minted(), kSub,
            "conference handle from the future");
    const std::vector<u32>& members = state.members(id);
    require(members.size() >= 2, kSub, "active conference below two members");
    member_sets.push_back(members);
    for (u32 m : members)
      require(m < net.size(), kSub, "active member row out of range");
    if (!state.relays()) return;
    // The realization the fabric derives is the enhanced-cube one.
    const sw::GroupRealization g = state.realization(id);
    const conf::EnhancedRealization fresh =
        conf::enhanced_cube_realization(net.n(), g.members);
    require(g.tap_level == fresh.tap_level && g.links == fresh.links, kSub,
            "fabric realization diverges from the enhanced-cube one");
    group_links.push_back(g.links.nested());
  });
  check_disjoint_memberships(member_sets, net.size(), kSub);
  // Admission stays within capacity, so the incremental overflow counter
  // must read zero on live state.
  require(state.overflowing_links() == 0, kSub,
          "admitted conferences exceed link channel capacity");
  check_fabric_state(state);
  for (u32 level = 0; level <= net.n(); ++level) {
    // R1 on live state: at most min(2^l, 2^(n-l)) disjoint ALL_PAIRS
    // conferences share a level-l link, whatever the dilation allows.
    require(state.level_peak_load(level) <= min::r1_bound(net.n(), level),
            kSub, "a link carries more conferences than R1 allows");
  }
  // The paper's claim, machine-checked on live state: relayed conferences
  // never share an interstage link.
  if (state.relays())
    check_link_disjoint(group_links, net.n() + 1, net.size(), kSub);
}

}  // namespace confnet::audit
