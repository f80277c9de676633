// Deep invariant audits (`confnet::audit`).
//
// The `expects`/`ensures` contracts in util/error.hpp guard single call
// sites; the audits here verify whole-object invariants that no call site
// can see — stage wiring really is a permutation, session/wait-queue
// state machines only reach legal states, fabric realizations are
// well-formed flow graphs, buddy free lists tile the port space, and the
// enhanced design's conferences stay mutually link-disjoint (the paper's
// central claim, re-checked at runtime).
//
// Two layers:
//  * Raw-data checkers (this header + audit.cpp) take plain vectors or the
//    public stats structs, so tests can feed deliberately corrupted state
//    and prove every audit actually fires.
//  * Per-subsystem wrappers (`check_network`, `check_session_manager`, ...)
//    are implemented next to the subsystem they inspect, with friend access
//    to its private state, and delegate to the raw checkers.
//
// The wrappers are always compiled (tests call them directly in every
// build); the in-library hooks that run them after every state mutation are
// compiled only under CONFNET_AUDIT (the `debug` and `asan-ubsan` presets),
// via CONFNET_AUDIT_HOOK below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace confnet::min {
class Network;
}
namespace confnet::sw {
class Fabric;
class FabricState;
struct GroupRealization;
}
namespace confnet::cluster {
class Cluster;
struct ClusterStats;
}
namespace confnet::conf {
class SessionManager;
class WaitQueueManager;
class RecoveryCoordinator;
class PlacerBase;
class PortPlacer;
class FastPortPlacer;
class BuddyAllocator;
class BitmapBuddyAllocator;
class DirectConferenceNetwork;
class EnhancedCubeNetwork;
struct SessionStats;
struct WaitStats;
}

namespace confnet::audit {

using u32 = std::uint32_t;
using u64 = std::uint64_t;

/// Thrown on a failed invariant audit. Derives `Error` so existing
/// recovery paths keep working while tests can assert the audit (and not a
/// call-site contract) fired.
class AuditError : public Error {
 public:
  AuditError(std::string_view subsystem, std::string_view what)
      : Error("audit[" + std::string(subsystem) + "]: " + std::string(what)),
        subsystem_(subsystem) {}

  [[nodiscard]] const std::string& subsystem() const noexcept {
    return subsystem_;
  }

 private:
  std::string subsystem_;
};

[[noreturn]] void fail(std::string_view subsystem, std::string_view what);

/// Audit-flavoured `expects`: throws AuditError when `cond` is false.
void require(bool cond, std::string_view subsystem, std::string_view what);

// --- Raw-data invariants (negative-testable from outside the classes). ---

/// `map` is a bijection on [0, map.size()).
void check_permutation(const std::vector<u32>& map, std::string_view subsystem);

/// `rows` is sorted, duplicate-free and every entry is < `bound`.
void check_rows(const std::vector<u32>& rows, u32 bound,
                std::string_view subsystem);

/// Member sets are individually sorted/unique/in-range and pairwise
/// disjoint over `ports` ports.
void check_disjoint_memberships(
    const std::vector<std::vector<u32>>& member_sets, u32 ports,
    std::string_view subsystem);

/// Per-group level->rows link sets never share a row at interstage levels
/// 1..levels-2 (level 0 / the last level are per-member and disjoint by
/// membership). This is the enhanced design's link-disjointness claim.
void check_link_disjoint(
    const std::vector<std::vector<std::vector<u32>>>& group_links, u32 levels,
    u32 rows, std::string_view subsystem);

/// Session counter coherence: attempts split exactly into accepted and the
/// two blocking causes, and the live session count never exceeds accepts.
void check_session_stats(const conf::SessionStats& stats, u64 active_sessions);

/// Wait-queue counter coherence plus queue shape: every issued ticket id is
/// below `next_ticket`, ids strictly increase (FIFO issue order), queued
/// sizes are valid conference sizes, and the queue respects its capacity.
void check_ticket_queue(const std::vector<u64>& ids,
                        const std::vector<u32>& sizes, u64 next_ticket,
                        u64 capacity);
void check_wait_stats(const conf::WaitStats& stats, u64 sessions_accepted);

/// Trunk ledger coherence under lane multiplexing: per-pair lanes-in-use
/// equal ceil(sharer_recount / conferences_per_lane) where `sharer_recount`
/// is the recount of live spanning conferences holding the pair, lanes
/// never exceed the per-pair capacity, and a faulty pair carries no live
/// sharers (its users were torn down when it failed). `used` /
/// `sharer_recount` / `faulty` are parallel, indexed by pair.
void check_trunk_accounts(const std::vector<u32>& used,
                          const std::vector<u32>& sharer_recount,
                          u32 lanes_per_pair, u32 conferences_per_lane,
                          const std::vector<bool>& faulty);

/// Cluster admission conservation: every open lands in exactly one outcome
/// bucket, live conferences equal accepted minus closed minus interrupted
/// (intra and spanning separately), and two-phase rollbacks never exceed
/// reservations.
void check_cluster_stats(const cluster::ClusterStats& stats, u64 live_intra,
                         u64 live_spans);

/// Buddy allocator state: free lists sorted/aligned/in-range, and the free
/// blocks plus `allocated` (base,order) blocks tile [0, 2^n) exactly once;
/// `free_ports` equals the total size of the free blocks.
void check_buddy_state(const std::vector<std::vector<u32>>& free_lists,
                       const std::vector<std::pair<u32, u32>>& allocated,
                       u32 n, u32 free_ports);

// --- Per-subsystem wrappers (implemented beside each subsystem). ---

/// Every stage's wiring, materialized inside the audit, is a permutation that
/// agrees with its inverse; every routing bit is consumed exactly once; and
/// successor/predecessor hops agree (on a row sample when N > 4096, so each
/// check stays O(N) per level).
void check_network(const min::Network& net);

/// A group realization is a well-formed flow graph on `net`: links sorted,
/// unique, in range; members injected at level 0; every used interstage
/// link fed by a used predecessor; taps (when present) cover exactly the
/// member set at legal levels.
void check_group_realization(const min::Network& net,
                             const sw::GroupRealization& group);

/// Incremental fabric state coherence: the live load matrix, port
/// ownership and overflow counter equal a recount over the admitted
/// groups, and the cached per-group delivered signals / fan-op counts
/// match a full stateless `Fabric::evaluate` of the same groups.
void check_fabric_state(const sw::FabricState& state);

/// Placer bookkeeping: occupancy count matches the taken bitmap, and under
/// buddy policy the allocator's free/allocated blocks tile the port space
/// with every taken port inside a live block.
void check_placer(const conf::PortPlacer& placer);

/// Fast-path placer: the hierarchical bitmap answers find/select queries
/// consistently with a bit-by-bit enumeration, and under buddy policy the
/// per-order free bitmaps plus the live block table tile the port space.
void check_placer(const conf::FastPortPlacer& placer);

/// Dispatch to the backend-specific audit above.
void check_placer(const conf::PlacerBase& placer);

/// Sessions hold sorted, pairwise-disjoint member sets of size >= 2 whose
/// ports are all occupied in the placer; counters cohere.
void check_session_manager(const conf::SessionManager& manager);

/// Queue shape and counters cohere with the inner session manager (every
/// service was an accepted open), then audits the session manager itself.
void check_waitqueue(const conf::WaitQueueManager& manager);

/// Recovery conservation: every interrupted session is recovered, dropped,
/// expired or still pending, and the pending/ticket maps stay a bijection.
void check_recovery(const conf::RecoveryCoordinator& recovery);

/// Every active conference's stored links equal the recomputed ALL_PAIRS
/// subnetwork, per-link load equals the sum over active conferences and
/// respects the dilation profile, and the busy-port bitmap is exactly the
/// union of members.
void check_direct_network(const conf::DirectConferenceNetwork& net);

/// Enhanced design: stored realizations equal the recomputed enhanced-cube
/// realization (tap level included), and active conferences are mutually
/// link-disjoint on interstage levels — the paper's nonblocking claim.
void check_enhanced_network(const conf::EnhancedCubeNetwork& net);

/// Cluster conservation law: admission counters cohere with the live
/// conference table (check_cluster_stats), the trunk ledger equals a
/// recount of the live spanning meshes (check_trunk_accounts), and every
/// live conference is well-formed (legs on distinct in-range shards,
/// ascending; spanning iff more than one leg). Reads only coordinator-owned
/// state — safe to run inside any cluster mutation.
void check_cluster(const cluster::Cluster& cluster);

}  // namespace confnet::audit

/// Runs an audit expression after a state mutation in CONFNET_AUDIT builds;
/// no-op (and no codegen) otherwise.
#if defined(CONFNET_AUDIT)
#define CONFNET_AUDIT_HOOK(expr) (expr)
namespace confnet::audit {
inline constexpr bool kEnabled = true;
}
#else
#define CONFNET_AUDIT_HOOK(expr) ((void)0)
namespace confnet::audit {
inline constexpr bool kEnabled = false;
}
#endif
