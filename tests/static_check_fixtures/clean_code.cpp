// static-check-fixture: path=src/conference/fixture_clean.cpp expect=clean
//
// Everything the checker audits, done the sanctioned way: locking through
// the annotated util wrappers, a CONFNET_HOT kernel that only mutates
// preallocated state, randomness drawn from the seeded util::Rng, and a
// switch over an enum that is not min::Kind.

#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace confnet::conf {

class Accumulator {
 public:
  void add(double v) {
    const util::MutexLock lock(mu_);
    total_ += v;
  }

  // Mentioning std::mutex in a comment must not trip raw-mutex, and a
  // string literal below must not either.
  const char* describe() const { return "uses std::mutex? never."; }

 private:
  mutable util::Mutex mu_;
  double total_ CONFNET_GUARDED_BY(mu_) = 0.0;
};

CONFNET_HOT double weighted_pick(double* slots, unsigned n, util::Rng& rng) {
  // Index math and in-place writes only: no growth, no allocation.
  const auto i = static_cast<unsigned>(rng.below(n));
  slots[i] += 1.0;
  return slots[i];
}

// An option kind of its own (as in util/cli.cpp): not a topology, so its
// case labels do not trip kind-switch.
enum class Kind { kBool, kInt, kDouble, kString };

const char* placeholder(Kind kind) {
  switch (kind) {
    case Kind::kBool: return "";
    case Kind::kInt: return "<int>";
    case Kind::kDouble: return "<float>";
    case Kind::kString: return "<string>";
  }
  return "";
}

}  // namespace confnet::conf
