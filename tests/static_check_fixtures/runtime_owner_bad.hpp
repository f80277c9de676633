// static-check-fixture: path=src/runtime/fixture_owner.hpp expect=runtime-owner:2
//
// Runtime-header members that never say who owns them. The runtime is the
// one subsystem whose objects are touched from multiple threads by design,
// so every `name_` member in a src/runtime header must either be
// CONFNET_GUARDED_BY a mutex or carry a `// runtime-owner: <tag>` comment.
// Exactly two findings here: the bare member and the misspelled tag; the
// annotated, tagged, and allow()-suppressed members must stay silent.

#include <cstdint>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace confnet::runtime {

class FixtureOwner {
 public:
  void poke() { ++untagged_; }

 private:
  std::uint64_t untagged_ = 0;                   // FINDING: no ownership
  std::uint64_t misspelled_ = 0;  // runtime-owner: wrker  FINDING: bad tag
  mutable util::Mutex mu_;        // runtime-owner: lock
  std::uint64_t guarded_ CONFNET_GUARDED_BY(mu_) = 0;
  std::vector<int> confined_;     // runtime-owner: worker
  // static_check: allow(runtime-owner) fixture shows the suppression path
  std::uint64_t waived_ = 0;
};

}  // namespace confnet::runtime
