// static-check-fixture: path=src/cluster/fixture_owner.hpp expect=cluster-owner:2
//
// Cluster-header members that never say who owns them. The Cluster front
// object brokers coordinator-side ledgers (trunk accounts, the live
// conference registry) around the concurrent runtime underneath it, so
// every `name_` member in a src/cluster header must either be
// CONFNET_GUARDED_BY a mutex or carry a `// cluster-owner: <tag>` comment
// with the runtime-owner tag vocabulary. Exactly two findings here: the
// bare member and the misspelled tag; the annotated, tagged, and
// allow()-suppressed members must stay silent — and a runtime-owner tag
// spelling is accepted too (the rule shares one tag grammar).

#include <cstdint>
#include <map>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace confnet::cluster {

class FixtureLedger {
 public:
  void poke() { ++untagged_; }

 private:
  std::uint64_t untagged_ = 0;                   // FINDING: no ownership
  std::uint64_t misspelled_ = 0;  // cluster-owner: coordinater  FINDING
  mutable util::Mutex mu_;        // cluster-owner: lock
  std::uint64_t guarded_ CONFNET_GUARDED_BY(mu_) = 0;
  std::map<int, int> ledger_;     // cluster-owner: caller
  std::uint64_t shared_tag_ = 0;  // runtime-owner: immutable
  // static_check: allow(cluster-owner) fixture shows the suppression path
  std::uint64_t waived_ = 0;
};

}  // namespace confnet::cluster
