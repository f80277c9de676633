#include "sim/des.hpp"

#include <algorithm>
#include <chrono>

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace confnet::sim {

namespace {

/// The heap order: `a` fires after `b`. A closure type, not a function,
/// so the heap algorithms inline it instead of calling through a pointer.
constexpr auto later = [](const Event& a, const Event& b) noexcept {
  return a.time != b.time ? a.time > b.time : a.seq > b.seq;
};

/// Wall time for the virtual_time_rate gauge only.
std::int64_t wall_ns() {
  // static_check: allow(sim-determinism) reporting-only wall clock
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t).count();
}

}  // namespace

void Simulator::schedule(SimTime t, std::uint32_t kind, EventArgs args) {
  expects(t >= now_, "cannot schedule events in the past");
  agenda_.push_back(Event{t, seq_++, kind, args});
  std::push_heap(agenda_.begin(), agenda_.end(), later);
}

void Simulator::begin_run(SimTime t_end) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracing_ = tracer.enabled();
  if (tracing_) {
    tracer.set_logical_time(now_);
    obs::trace_emit("sim", "run_begin", t_end);
  }
  run_now_ = now_;
  run_processed_ = processed_;
  run_wall_ns_ = wall_ns();
}

bool Simulator::pop(SimTime t_end, Event& out) {
  if (agenda_.empty() || agenda_.front().time > t_end) return false;
  std::pop_heap(agenda_.begin(), agenda_.end(), later);
  out = agenda_.back();
  agenda_.pop_back();
  now_ = out.time;
  ++processed_;
  if (tracing_) obs::Tracer::global().set_logical_time(now_);
  return true;
}

void Simulator::end_run(SimTime t_end) {
  if (agenda_.empty() || agenda_.front().time > t_end) now_ = t_end;
  if (tracing_) {
    obs::Tracer::global().set_logical_time(now_);
    obs::trace_emit("sim", "run_end",
                    static_cast<double>(processed_ - run_processed_));
  }

  // Observability: cumulative event count, instantaneous queue depth, and
  // the virtual-time rate (simulated seconds per wall second) of this run.
  // The registry handles are resolved once per process.
  obs::Registry& reg = obs::Registry::global();
  static obs::Counter& events = reg.counter("sim", "events");
  static obs::Counter& runs = reg.counter("sim", "runs");
  static obs::Gauge& queue_depth = reg.gauge("sim", "queue_depth");
  static obs::Gauge& virtual_time = reg.gauge("sim", "virtual_time");
  static obs::Gauge& time_rate = reg.gauge("sim", "virtual_time_rate");
  events.add(processed_ - run_processed_);
  runs.add();
  queue_depth.set(static_cast<double>(agenda_.size()));
  virtual_time.set(now_);
  const double wall_seconds =
      static_cast<double>(wall_ns() - run_wall_ns_) / 1e9;
  if (wall_seconds > 0.0) time_rate.set((now_ - run_now_) / wall_seconds);
}

}  // namespace confnet::sim
