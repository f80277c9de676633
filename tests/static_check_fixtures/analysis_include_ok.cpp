// static-check-fixture: path=src/analysis/conference/fixture_analysis.cpp expect=clean
//
// The analysis target builds on the serving core and on itself: its files
// may include both.

#include "analysis/conference/multiplicity.hpp"
#include "analysis/util/thread_pool.hpp"
#include "conference/subnetwork.hpp"
#include "min/windows.hpp"

namespace confnet::conf {

u32 peak_at_middle(u32 n) { return min::r1_bound(n, n / 2); }

}  // namespace confnet::conf
