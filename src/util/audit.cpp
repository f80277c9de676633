#include "util/audit.hpp"

namespace confnet::audit {

void fail(std::string_view subsystem, std::string_view what) {
  throw AuditError(subsystem, what);
}

void require(bool cond, std::string_view subsystem, std::string_view what) {
  if (!cond) fail(subsystem, what);
}

void check_permutation(const std::vector<u32>& map,
                       std::string_view subsystem) {
  const std::size_t size = map.size();
  std::vector<bool> seen(size, false);
  for (u32 v : map) {
    require(v < size, subsystem, "permutation entry out of range");
    require(!seen[v], subsystem, "permutation entry repeated (not a bijection)");
    seen[v] = true;
  }
}

void check_rows(std::span<const u32> rows, u32 bound,
                std::string_view subsystem) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    require(rows[i] < bound, subsystem, "row out of range");
    if (i > 0)
      require(rows[i - 1] < rows[i], subsystem,
              "rows not sorted / contain duplicates");
  }
}

void check_disjoint_memberships(
    const std::vector<std::vector<u32>>& member_sets, u32 ports,
    std::string_view subsystem) {
  std::vector<bool> owned(ports, false);
  for (const auto& members : member_sets) {
    check_rows(members, ports, subsystem);
    for (u32 m : members) {
      require(!owned[m], subsystem, "member port owned by two conferences");
      owned[m] = true;
    }
  }
}

void check_link_disjoint(
    const std::vector<std::vector<std::vector<u32>>>& group_links, u32 levels,
    u32 rows, std::string_view subsystem) {
  if (levels <= 2) return;  // no interstage levels to share
  std::vector<int> owner(static_cast<std::size_t>(levels) * rows, -1);
  for (std::size_t g = 0; g < group_links.size(); ++g) {
    const auto& links = group_links[g];
    require(links.size() == levels, subsystem,
            "group link set has wrong level count");
    for (u32 level = 1; level + 1 < levels; ++level) {
      check_rows(links[level], rows, subsystem);
      for (u32 r : links[level]) {
        auto& cell = owner[static_cast<std::size_t>(level) * rows + r];
        require(cell < 0 || cell == static_cast<int>(g), subsystem,
                "interstage link shared by two conferences");
        cell = static_cast<int>(g);
      }
    }
  }
}

void check_ticket_queue(const std::vector<u64>& ids,
                        const std::vector<u32>& sizes, u64 next_ticket,
                        u64 capacity) {
  constexpr std::string_view kSub = "waitqueue";
  require(ids.size() == sizes.size(), kSub, "ticket id/size lists disagree");
  require(ids.size() <= capacity, kSub, "queue exceeds its capacity");
  for (std::size_t i = 0; i < ids.size(); ++i) {
    require(ids[i] < next_ticket, kSub, "ticket id from the future");
    require(sizes[i] >= 2, kSub, "queued conference smaller than two members");
    if (i > 0)
      require(ids[i - 1] < ids[i], kSub,
              "queue not in FIFO ticket-issue order");
  }
}

void check_trunk_accounts(const std::vector<u32>& used,
                          const std::vector<u32>& sharer_recount,
                          u32 lanes_per_pair, u32 conferences_per_lane,
                          const std::vector<bool>& faulty) {
  constexpr std::string_view kSub = "cluster";
  require(conferences_per_lane >= 1, kSub,
          "trunk multiplexing factor must be at least one");
  require(used.size() == sharer_recount.size() && used.size() == faulty.size(),
          kSub, "trunk ledger vectors disagree on the pair count");
  for (std::size_t p = 0; p < used.size(); ++p) {
    const u32 want =
        (sharer_recount[p] + conferences_per_lane - 1) / conferences_per_lane;
    require(used[p] == want, kSub,
            "trunk lanes-in-use disagree with the live-span sharer recount");
    require(used[p] <= lanes_per_pair, kSub,
            "trunk pair over its lane capacity");
    require(!faulty[p] || sharer_recount[p] == 0, kSub,
            "faulty trunk pair still carries live sharers");
  }
}

}  // namespace confnet::audit
