// static-check-fixture: path=src/runtime/fixture_pool_stage.hpp expect=hot-alloc:3
//
// The PR 10 lock-lean command path regressing: a slot-recycled result
// pool whose CONFNET_HOT acquire allocates per call (instead of only on
// the cold growth path, with a reasoned allow), and a staging-buffer push
// that builds a fresh vector per staged command. Both must be flagged;
// the reasoned allow on the genuine cold-growth line must stay silent.

#include <memory>
#include <utility>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace confnet::runtime {

struct FixtureSlot {
  int value = 0;
};

class FixturePool {
 public:
  CONFNET_HOT FixtureSlot* acquire() {
    util::MutexLock lock(mu_);
    // FINDING: allocates on every acquire, not just on cold growth.
    slots_.push_back(std::make_unique<FixtureSlot>());
    return slots_.back().get();
  }

  CONFNET_HOT void release(FixtureSlot* slot) {
    util::MutexLock lock(mu_);
    // static_check: allow(hot-alloc) capacity reserved at growth time;
    // this push recycles it
    free_.push_back(slot);
  }

 private:
  mutable util::Mutex mu_;  // runtime-owner: lock
  std::vector<std::unique_ptr<FixtureSlot>> slots_ CONFNET_GUARDED_BY(mu_);
  std::vector<FixtureSlot*> free_ CONFNET_GUARDED_BY(mu_);
};

class FixtureStage {
 public:
  CONFNET_HOT void add(int shard, int command) {
    // FINDING: a fresh per-command vector defeats the recycled staging
    // buffer.
    std::vector<int> wrapped;
    wrapped.push_back(command);
    staged_.emplace_back(shard, std::move(wrapped));
  }

 private:
  std::vector<std::pair<int, std::vector<int>>> staged_;  // runtime-owner: caller
};

}  // namespace confnet::runtime
