// Shared machinery of the end-to-end admission benchmark: clocks and
// percentiles, CPU pinning, the preallocated span buffer, the timing
// decorator around a conference fabric, and the interface every workload
// implements for the round loop in main.cpp.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "conference/designs.hpp"
#include "conference/placement.hpp"
#include "conference/waitqueue.hpp"
#include "util/rng.hpp"

namespace confnet::e2e {

using u32 = std::uint32_t;
using u64 = std::uint64_t;

inline u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nanoseconds between two now_ns() stamps, saturated into a sample slot.
inline u32 elapsed_ns(u64 from, u64 to) {
  const u64 d = to > from ? to - from : 0;
  return d > UINT32_MAX ? UINT32_MAX : static_cast<u32>(d);
}

/// Deterministic per-round seed derived from the workload seed.
u64 mix_seed(u64 seed, u64 round);

/// q-quantile (0..1) of the samples in microseconds; reorders `ns`.
/// 0 when there are no samples.
double quantile_us(std::vector<u32>& ns, double q);
double mean_us(const std::vector<u32>& ns);
double median(std::vector<double> v);

/// Peak resident set of this process image (VmHWM), in MB.
double peak_rss_mb();

/// CPU placement of the load thread and the workers. With at least W+1
/// allowed CPUs the load thread confines itself to allowed CPUs 1..W
/// before a runtime starts, so the worker threads inherit that mask, then
/// moves itself to the first allowed CPU: coordinator and workers never
/// share a core. With fewer CPUs nothing is pinned.
class Pinning {
 public:
  explicit Pinning(u32 workers);
  [[nodiscard]] bool pinned() const noexcept { return pinned_; }
  void before_start() const;
  void after_start() const;

 private:
  std::vector<int> allowed_;
  u32 workers_;
  bool pinned_ = false;
};

/// One traced interval. Spans of one request share `request`; `parent`
/// indexes the enclosing span in the same buffer (kNoSpan at the root).
struct Span {
  u64 request = 0;
  u32 parent = 0;
  const char* name = "";
  u64 start_ns = 0;
  u64 end_ns = 0;
};

constexpr u32 kNoSpan = UINT32_MAX;

/// Fixed-capacity span store: no allocation while recording; spans past
/// the capacity are counted and dropped (a traced run with drops is not
/// correct). Written out as JSONL at the end.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity) { spans_.reserve(capacity); }

  /// Forget the recorded spans (not the drop count); keeps the capacity.
  void clear() noexcept { spans_.clear(); }

  u32 open(const char* name, u64 request, u32 parent) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return kNoSpan;
    }
    spans_.push_back(Span{request, parent, name, now_ns(), 0});
    return static_cast<u32>(spans_.size() - 1);
  }
  void close(u32 index) {
    if (index != kNoSpan) spans_[index].end_ns = now_ns();
  }
  /// Record an interval whose ends were already stamped.
  u32 add(const char* name, u64 request, u32 parent, u64 start, u64 end) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return kNoSpan;
    }
    spans_.push_back(Span{request, parent, name, start, end});
    return static_cast<u32>(spans_.size() - 1);
  }

  void write_jsonl(std::ostream& os) const;
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  [[nodiscard]] u64 dropped() const noexcept { return dropped_; }

 private:
  std::vector<Span> spans_;
  u64 dropped_ = 0;
};

/// RAII span; a null buffer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, const char* name, u64 request, u32 parent)
      : buf_(buf), index_(buf ? buf->open(name, request, parent) : kNoSpan) {}
  ~ScopedSpan() {
    if (buf_) buf_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] u32 index() const noexcept { return index_; }

 private:
  SpanBuffer* buf_;
  u32 index_;
};

/// Fabric shape shared by every shard of a workload (and by the layer
/// replays that stand in for one shard).
struct FabricGeometry {
  u32 stages = 8;
  u32 dilation = 4;
  conf::PlacementPolicy policy = conf::PlacementPolicy::kFirstFit;
  u64 seed = 1;  // shard i draws from seed + i
};

std::unique_ptr<conf::DirectConferenceNetwork> make_fabric(
    const FabricGeometry& g);

/// Shard `index`'s admission stack run serially on the load thread: a
/// loss-mode WaitQueueManager over `fabric`, drawing from the shard's own
/// seed, so it reaches the live shard's verdicts and session ids.
struct ShardModel {
  ShardModel(std::unique_ptr<conf::ConferenceNetworkBase> fabric,
             const FabricGeometry& g, u32 index)
      : net(std::move(fabric)),
        wait(*net, g.policy, 0, false, conf::PlacerBackend::kFast),
        rng(g.seed + index) {}

  std::unique_ptr<conf::ConferenceNetworkBase> net;
  conf::WaitQueueManager wait;
  util::Rng rng;
};

/// One admission-stream entry at the conference-layer boundary of one
/// shard: an open of `size` members, or the close of the open at index
/// `opened` of the same stream. `request` ties it to the live operation.
struct StreamOp {
  bool open = true;
  u32 size = 0;
  u32 opened = 0;
  bool expect_served = false;
  u64 request = 0;
};
using ShardStream = std::vector<StreamOp>;

/// Calls and time of the switchmod calls one fabric served, and the wall
/// time of the run those calls were part of.
struct SwitchmodTimes {
  enum Call : u32 { kSetup, kTeardown, kAddMember, kRemoveMember, kVerify,
                    kCallKinds };
  struct CallStats {
    u64 calls = 0;
    u64 ns = 0;
  };
  std::array<CallStats, kCallKinds> calls{};
  u64 setup_failed = 0;
  u64 wall_ns = 0;

  [[nodiscard]] u64 total_ns() const;
  void add(const SwitchmodTimes& other);
};

/// Decorator over DirectConferenceNetwork that forwards every virtual and
/// times the switchmod calls. Optionally keeps setup/teardown latency
/// samples, records the admission stream it sees (for the layer replays)
/// and records spans.
class TimedNetwork final : public conf::ConferenceNetworkBase {
 public:
  using Call = SwitchmodTimes::Call;

  explicit TimedNetwork(std::unique_ptr<conf::DirectConferenceNetwork> inner)
      : inner_(std::move(inner)) {}

  // Observation hooks; all optional.
  std::vector<u32>* setup_samples = nullptr;
  std::vector<u32>* teardown_samples = nullptr;
  ShardStream* stream = nullptr;
  SpanBuffer* spans = nullptr;
  u64 request = 0;        // request id stamped on spans
  u32 parent = kNoSpan;   // enclosing span

  /// Calls served so far (wall_ns left 0 for the caller to fill).
  [[nodiscard]] const SwitchmodTimes& times() const noexcept { return times_; }

  [[nodiscard]] u32 n() const noexcept override { return inner_->n(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::optional<u32> setup(
      const std::vector<u32>& members) override;
  [[nodiscard]] conf::SetupError last_error() const noexcept override {
    return inner_->last_error();
  }
  void teardown(u32 handle) override;
  [[nodiscard]] u32 active_count() const noexcept override {
    return inner_->active_count();
  }
  [[nodiscard]] bool verify_delivery() const override;
  [[nodiscard]] bool verify_delivery_reference() const override {
    return inner_->verify_delivery_reference();
  }
  [[nodiscard]] u32 stages_for(u32 handle) const override {
    return inner_->stages_for(handle);
  }
  [[nodiscard]] bool add_member(u32 handle, u32 port) override;
  [[nodiscard]] bool remove_member(u32 handle, u32 port) override;
  [[nodiscard]] const std::vector<u32>& members_for(
      u32 handle) const override {
    return inner_->members_for(handle);
  }
  [[nodiscard]] min::Kind kind() const noexcept override {
    return inner_->kind();
  }
  [[nodiscard]] bool supports_faults() const noexcept override {
    return inner_->supports_faults();
  }
  [[nodiscard]] std::vector<u32> fail_link(u32 level, u32 row) override {
    return inner_->fail_link(level, row);
  }
  std::vector<u32> repair_link(u32 level, u32 row) override {
    return inner_->repair_link(level, row);
  }
  [[nodiscard]] bool link_faulty(u32 level, u32 row) const override {
    return inner_->link_faulty(level, row);
  }
  [[nodiscard]] const min::FaultSet* faults() const noexcept override {
    return inner_->faults();
  }
  [[nodiscard]] bool conference_survives(u32 handle) const override {
    return inner_->conference_survives(handle);
  }

 private:
  void note(Call c, u64 start, u64 end, const char* span_name) const;

  std::unique_ptr<conf::DirectConferenceNetwork> inner_;
  mutable SwitchmodTimes times_;
  std::vector<u32> open_of_handle_;  // handle -> stream index (recording)
};

/// One named value of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one measured round reports to the round loop.
struct Round {
  u64 ops = 0;             // admission decisions completed (opens + closes)
  u64 events = 0;          // runtime commands or DES events completed
  double window_s = 0.0;   // measured wall time
  std::vector<u32> open_ns;   // end-to-end open latency samples
  std::vector<u32> close_ns;  // end-to-end close latency samples
  u64 opens = 0;           // open decisions attempted
  u64 blocked = 0;         // of which refused (a valid verdict)
  u64 failed = 0;          // operations without a valid, checked verdict
};

/// What the layer replays and probes need from a workload after its
/// traced rounds, plus the layer metrics only the workload can measure
/// (by their names in layers.cpp's table).
struct LayerInputs {
  FabricGeometry geometry;
  std::vector<ShardStream> streams;  // last traced round, per shard
  bool check_verdicts = true;        // stream verdicts are the live ones
  u64 attempts = 0;                  // live conference-layer open attempts
  u64 blocked_placement = 0;
  u64 blocked_capacity = 0;
  double intra_open_us = 0.0;  // closed-loop mean intra-shard open (0: none)
  /// The workload's own fabric calls (DES), reported as the switchmod
  /// metrics instead of those of the conference replay.
  std::optional<SwitchmodTimes> live_switchmod;
  std::vector<std::pair<std::string, double>> values;
};

/// A benchmark workload. The round loop calls setup_sample() repeatedly for
/// the set-up metric and run_round() until the measured time is spent; in
/// a traced run it then asks for layer_inputs().
class Workload {
 public:
  virtual ~Workload() = default;
  /// Seconds to construct and start the workload's system once.
  virtual double setup_sample() = 0;
  /// One measured round on inputs drawn from `seed`. `spans` is non-null
  /// in traced rounds.
  virtual void run_round(u64 seed, SpanBuffer* spans, Round& out) = 0;
  virtual LayerInputs layer_inputs() = 0;
};

/// Every per-layer metric of a traced run, in the order of layers.cpp's
/// table (0 where the workload has no value), plus the replay verdict
/// mismatches (failures).
struct LayerReport {
  std::vector<Metric> metrics;
  u64 failed = 0;
};

/// Layer probes and replays (layers.cpp), given the workload's inputs.
LayerReport layer_report(const LayerInputs& in, const Pinning& pinning,
                         double scale, SpanBuffer* spans);

}  // namespace confnet::e2e
