// static-check-fixture: path=src/min/fixture_kind.cpp expect=kind-switch:6
//
// Topology structure written out per kind instead of read from the kind's
// min::KindLayout row. Every spelling of a min::Kind case label below is
// reported.

#include "min/types.hpp"

namespace confnet::min {

u32 routing_bit(Kind kind, u32 n, u32 k) {
  switch (kind) {
    case Kind::kOmega:                 // flagged
    case Kind::kBaseline:              // flagged
    case min::Kind::kButterfly:        // flagged: namespace-qualified
    case confnet::min::Kind::kFlip:    // flagged: fully qualified
      return n - 1 - k;
    case Kind::kIndirectCube:          // flagged
    case Kind::kReverseOmega:          // flagged
      return k;
  }
  return 0;
}

}  // namespace confnet::min
