#include "analysis/conference/replication.hpp"

#include <algorithm>
#include <span>

#include "analysis/conference/multiplicity.hpp"
#include "conference/subnetwork.hpp"
#include "util/error.hpp"

namespace confnet::conf {

// ---------------------------------------------------------------------------
// ConflictGraph
// ---------------------------------------------------------------------------

namespace {
bool links_intersect(const LevelLinks& a, const LevelLinks& b) {
  for (u32 level = 0; level < a.levels(); ++level) {
    const std::span<const u32> ra = a[level];
    const std::span<const u32> rb = b[level];
    auto ia = ra.begin();
    auto ib = rb.begin();
    while (ia != ra.end() && ib != rb.end()) {
      if (*ia == *ib) return true;
      if (*ia < *ib) {
        ++ia;
      } else {
        ++ib;
      }
    }
  }
  return false;
}
}  // namespace

ConflictGraph::ConflictGraph(min::Kind kind, u32 n,
                             const std::vector<std::vector<u32>>& member_sets) {
  const std::size_t count = member_sets.size();
  std::vector<LevelLinks> links;
  links.reserve(count);
  for (const auto& members : member_sets) {
    std::vector<u32> sorted = members;
    std::sort(sorted.begin(), sorted.end());
    links.push_back(all_pairs_links(kind, n, sorted));
  }
  adjacency_.assign(count, std::vector<bool>(count, false));
  for (std::size_t a = 0; a < count; ++a)
    for (std::size_t b = a + 1; b < count; ++b)
      if (links_intersect(links[a], links[b]))
        adjacency_[a][b] = adjacency_[b][a] = true;

  // Clique lower bound from the measured peak multiplicity: conferences
  // sharing one physical link are pairwise adjacent.
  std::vector<u32> counts(u32{1} << n);
  for (u32 level = 1; level < n; ++level) {
    std::fill(counts.begin(), counts.end(), 0u);
    for (const auto& l : links)
      for (u32 row : l[level])
        clique_bound_ = std::max(clique_bound_, ++counts[row]);
  }
  if (count > 0) clique_bound_ = std::max(clique_bound_, 1u);
}

bool ConflictGraph::conflicts(std::size_t a, std::size_t b) const {
  expects(a < size() && b < size(), "conflict query out of range");
  return adjacency_[a][b];
}

u32 ConflictGraph::degree(std::size_t v) const {
  expects(v < size(), "degree query out of range");
  u32 deg = 0;
  for (bool e : adjacency_[v]) deg += e;
  return deg;
}

ConflictGraph::Coloring ConflictGraph::color() const {
  Coloring result;
  result.colors.assign(size(), 0);
  if (size() == 0) return result;
  // Largest-degree-first greedy.
  std::vector<std::size_t> order(size());
  for (std::size_t i = 0; i < size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return degree(a) > degree(b);
  });
  std::vector<bool> assigned(size(), false);
  for (std::size_t v : order) {
    std::vector<bool> used(size(), false);
    for (std::size_t u = 0; u < size(); ++u)
      if (assigned[u] && adjacency_[v][u]) used[result.colors[u]] = true;
    u32 c = 0;
    while (used[c]) ++c;
    result.colors[v] = c;
    assigned[v] = true;
    result.color_count = std::max(result.color_count, c + 1);
  }
  return result;
}

// ---------------------------------------------------------------------------
// ReplicatedConferenceNetwork
// ---------------------------------------------------------------------------

ReplicatedConferenceNetwork::ReplicatedConferenceNetwork(min::Kind kind,
                                                         u32 n, u32 planes)
    : n_(n), kind_(kind), port_busy_(u32{1} << n, false) {
  expects(planes >= 1 && planes <= 64, "1 <= planes <= 64");
  planes_.reserve(planes);
  for (u32 p = 0; p < planes; ++p)
    planes_.emplace_back(kind, n, DilationProfile::uniform(n, 1));
}

std::string ReplicatedConferenceNetwork::name() const {
  return "replicated-" + std::string(min::kind_name(kind_)) + "(r=" +
         std::to_string(planes()) + ")";
}

std::optional<u32> ReplicatedConferenceNetwork::setup(
    const std::vector<u32>& members) {
  expects(members.size() >= 2, "conferences need at least two members");
  for (u32 m : members) {
    expects(m < size(), "member out of range");
    if (port_busy_[m]) {
      last_error_ = SetupError::kPortBusy;
      return std::nullopt;
    }
  }
  // Online first-fit coloring: first plane that takes the conference.
  for (u32 p = 0; p < planes(); ++p) {
    if (const auto inner = planes_[p].setup(members)) {
      for (u32 m : members) port_busy_[m] = true;
      const u32 handle = handles_.take();
      active_.emplace(handle, Active{p, *inner});
      return handle;
    }
  }
  last_error_ = SetupError::kLinkCapacity;
  return std::nullopt;
}

void ReplicatedConferenceNetwork::teardown(u32 handle) {
  const auto it = active_.find(handle);
  expects(it != active_.end(), "teardown of unknown handle");
  for (u32 m : planes_[it->second.plane].members_for(it->second.inner_handle))
    port_busy_[m] = false;
  planes_[it->second.plane].teardown(it->second.inner_handle);
  active_.erase(it);
  handles_.release(handle);
}

u32 ReplicatedConferenceNetwork::active_count() const noexcept {
  return static_cast<u32>(active_.size());
}

bool ReplicatedConferenceNetwork::verify_delivery() const {
  for (const auto& plane : planes_)
    if (!plane.verify_delivery()) return false;
  return true;
}

bool ReplicatedConferenceNetwork::verify_delivery_reference() const {
  for (const auto& plane : planes_)
    if (!plane.verify_delivery_reference()) return false;
  return true;
}

bool ReplicatedConferenceNetwork::add_member(u32 handle, u32 port) {
  const auto it = active_.find(handle);
  expects(it != active_.end(), "add_member on unknown handle");
  expects(port < size(), "member out of range");
  if (port_busy_[port]) {
    last_error_ = SetupError::kPortBusy;
    return false;
  }
  if (!planes_[it->second.plane].add_member(it->second.inner_handle, port)) {
    last_error_ = planes_[it->second.plane].last_error();
    return false;  // no cross-plane migration
  }
  port_busy_[port] = true;
  return true;
}

bool ReplicatedConferenceNetwork::remove_member(u32 handle, u32 port) {
  const auto it = active_.find(handle);
  expects(it != active_.end(), "remove_member on unknown handle");
  if (!planes_[it->second.plane].remove_member(it->second.inner_handle,
                                               port))
    return false;
  port_busy_[port] = false;
  return true;
}

const std::vector<u32>& ReplicatedConferenceNetwork::members_for(
    u32 handle) const {
  const auto it = active_.find(handle);
  expects(it != active_.end(), "unknown handle");
  return planes_[it->second.plane].members_for(it->second.inner_handle);
}

u32 ReplicatedConferenceNetwork::plane_of(u32 handle) const {
  const auto it = active_.find(handle);
  expects(it != active_.end(), "unknown handle");
  return it->second.plane;
}

std::vector<u32> ReplicatedConferenceNetwork::plane_occupancy() const {
  std::vector<u32> occ(planes(), 0);
  for (const auto& [handle, a] : active_) ++occ[a.plane];
  return occ;
}

}  // namespace confnet::conf
