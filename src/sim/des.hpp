// Minimal deterministic discrete-event simulation engine: one binary heap
// of plain events (time, sequence number, kind, a few ids), which a driver
// fires with one `switch` over its own kinds in the callback it hands to
// run_until(). An event owns nothing, so scheduling allocates only when
// the heap grows. Events at equal timestamps fire in scheduling order, so
// a fixed RNG seed reproduces a run exactly — the property every
// experiment harness in bench/ depends on.
//
// Observability: every run_until() publishes events-processed, queue depth
// and the virtual-time rate to the `sim` subsystem of the obs::Registry,
// and mirrors the logical clock into obs::Tracer (when enabled) so trace
// records from the layers above carry simulation time, not wall time.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

namespace confnet::sim {

using SimTime = double;

/// The values an event carries to its handler: ids and indices only.
struct EventArgs {
  std::uint64_t id = 0;
  std::uint32_t a = 0, b = 0, c = 0;
};

struct Event {
  SimTime time = 0.0;
  std::uint64_t seq = 0;
  std::uint32_t kind = 0;  // the driver's own event kind
  EventArgs args;
};
static_assert(sizeof(EventArgs) <= 32, "an event's payload stays small");
static_assert(std::is_trivially_copyable_v<Event>, "an event owns nothing");

class Simulator {
 public:
  /// Schedule an event of `kind` at absolute time `t` (>= now()).
  void schedule(SimTime t, std::uint32_t kind, EventArgs args = {});
  void schedule_in(SimTime dt, std::uint32_t kind, EventArgs args = {}) {
    schedule(now_ + dt, kind, args);
  }

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }

  /// Fire events in (time, seq) order through `fire(const Event&)` until
  /// the agenda drains, the next event lies past `t_end`, or `fire`
  /// returns false. Events not fired stay queued for the next run.
  template <typename Fire>
  void run_until(SimTime t_end, Fire&& fire) {
    begin_run(t_end);
    Event ev;
    while (pop(t_end, ev) && fire(ev)) {
    }
    end_run(t_end);
  }

 private:
  void begin_run(SimTime t_end);
  bool pop(SimTime t_end, Event& out);  // the next event due by t_end
  void end_run(SimTime t_end);

  std::vector<Event> agenda_;  // binary heap, earliest (time, seq) on top
  SimTime now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  // The current run: is obs::Tracer on, and where did the run start.
  bool tracing_ = false;
  SimTime run_now_ = 0.0;
  std::uint64_t run_processed_ = 0;
  std::int64_t run_wall_ns_ = 0;
};

}  // namespace confnet::sim
