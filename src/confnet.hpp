// Umbrella header: the full public API of the confnet library.
//
// Reproduction of "A Class of Multistage Conference Switching Networks for
// Group Communication" (Yang & Wang, ICPP 2002). See README.md for the
// architecture tour and DESIGN.md for the model and verified results.
#pragma once

// utilities
#include "util/bits.hpp"       // bit algebra for 2^n-port address math
#include "util/bitset.hpp"     // reachability-window bitsets
#include "util/chart.hpp"      // ASCII figure rendering
#include "util/cli.hpp"        // flag parsing for tools
#include "util/error.hpp"      // confnet::Error, expects/ensures
#include "util/log.hpp"        // leveled logging
#include "util/rng.hpp"        // deterministic xoshiro256**
#include "util/stats.hpp"      // Welford stats, quantiles, summaries
#include "util/table.hpp"      // aligned/CSV experiment tables
#include "util/thread_pool.hpp"  // parallel replication runner
#include "util/timer.hpp"      // stopwatches

// the multistage-network class
#include "min/banyan.hpp"       // structural property checks
#include "min/benes.hpp"        // rearrangeable reference + looping
#include "min/dot.hpp"          // Graphviz export
#include "min/equivalence.hpp"  // constructive class isomorphisms
#include "min/faults.hpp"       // link faults and survival analysis
#include "min/network.hpp"      // omega/baseline/cube/...: stages + routing
#include "min/permroute.hpp"    // unicast permutation loads
#include "min/selfroute.hpp"    // closed-form self-routing
#include "min/types.hpp"        // Kind, LinkRef
#include "min/windows.hpp"      // In/Out windows: closed forms + BFS table
#include "min/wiring.hpp"       // closed-form stage wiring, permutations

// switching substrate
#include "switchmod/channels.hpp"  // dilated-link channel assignment
#include "switchmod/fabric.hpp"    // functional fan-in/fan-out evaluation
#include "switchmod/module.hpp"    // the 2x2 fan-in/fan-out module
#include "switchmod/mux.hpp"       // relay multiplexers
#include "switchmod/signal.hpp"    // combining-signal algebra

// conference networks (the paper's contribution)
#include "conference/conference.hpp"    // Conference, ConferenceSet
#include "conference/designs.hpp"       // direct + enhanced-cube designs
#include "conference/multicast.hpp"     // one-to-many trees
#include "conference/multiplicity.hpp"  // conflict-multiplicity analysis
#include "conference/placement.hpp"     // buddy/first-fit/random placement
#include "conference/replication.hpp"   // planes + conflict-graph coloring
#include "conference/session.hpp"       // dynamic session management
#include "conference/subnetwork.hpp"    // ALL_PAIRS / fan-in-tree links
#include "conference/waitqueue.hpp"     // hold-queue admission

// simulation and analytics
#include "cost/cost.hpp"         // hardware cost models
#include "sim/des.hpp"           // discrete-event engine
#include "sim/erlang.hpp"        // Erlang-B / Kaufman-Roberts references
#include "sim/replication.hpp"   // parallel replications
#include "sim/teletraffic.hpp"   // the dynamic-conference experiment
#include "sim/traffic.hpp"       // arrival/holding/talk-spurt models
