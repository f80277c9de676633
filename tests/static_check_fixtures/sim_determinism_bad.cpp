// static-check-fixture: path=src/sim/fixture_clock.cpp expect=sim-determinism:4
//
// Simulation code reading wall-clock time and ambient randomness. Every
// run must be byte-reproducible from its seed, so all four uses below are
// reported.

#include <chrono>
#include <cstdlib>
#include <random>

namespace confnet::sim {

double next_arrival() {
  std::random_device entropy;        // flagged: nondeterministic seed
  std::srand(entropy());             // flagged: global RNG state
  const int jitter = std::rand();    // flagged: unseeded draw
  const auto now =
      std::chrono::steady_clock::now();  // flagged: wall clock
  return static_cast<double>(jitter % 100) +
         static_cast<double>(now.time_since_epoch().count() % 2);
}

}  // namespace confnet::sim
