// static-check-fixture: path=src/cluster/fixture_core_include.cpp expect=core-include:2
//
// A serving-core file reaching into the analysis target. Both spellings of
// the include are reported; the mentions in comments and in the block
// comment below are not.

#include "analysis/conference/multiplicity.hpp"  // flagged
#include <analysis/util/thread_pool.hpp>         // flagged: angle form
#include "cluster/cluster.hpp"

/*
#include "analysis/min/benes.hpp"
*/

namespace confnet::cluster {

// Mentioning "analysis/cost/cost.hpp" here trips nothing.
u32 bound(u32 n, u32 level) { return conf::theoretical_peak(n) + level; }

}  // namespace confnet::cluster
