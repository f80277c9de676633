#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <numeric>
#include <string>

#include "util/rng.hpp"

namespace confnet::e2e {

u64 mix_seed(u64 seed, u64 round) {
  u64 state = seed * 0x9e3779b97f4a7c15ull + round;
  return util::splitmix64(state);
}

double quantile_us(std::vector<u32>& ns, double q) {
  if (ns.empty()) return 0.0;
  const auto k =
      static_cast<std::size_t>(q * static_cast<double>(ns.size() - 1));
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(k),
                   ns.end());
  return static_cast<double>(ns[k]) / 1000.0;
}

double mean_us(const std::vector<u32>& ns) {
  if (ns.empty()) return 0.0;
  const double sum = std::accumulate(ns.begin(), ns.end(), 0.0);
  return sum / static_cast<double>(ns.size()) / 1000.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

double peak_rss_mb() {
  // VmHWM belongs to the address space, which execve replaces; ru_maxrss
  // keeps the high-water mark of the launching process (run.py's Python).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

namespace {

void pin_self(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

Pinning::Pinning(u32 workers) : workers_(workers) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) allowed_.push_back(c);
  pinned_ = allowed_.size() >= workers_ + 1;
}

void Pinning::before_start() const {
  if (!pinned_) return;
  pin_self(std::vector<int>(allowed_.begin() + 1,
                            allowed_.begin() + 1 + workers_));
}

void Pinning::after_start() const {
  if (!pinned_) return;
  pin_self({allowed_.front()});
}

void SpanBuffer::write_jsonl(std::ostream& os) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"span\":" << i << ",\"request\":" << s.request << ",\"parent\":";
    if (s.parent == kNoSpan)
      os << "null";
    else
      os << s.parent;
    os << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
       << ",\"dur_ns\":" << (s.end_ns >= s.start_ns ? s.end_ns - s.start_ns : 0)
       << "}\n";
  }
}

std::unique_ptr<conf::DirectConferenceNetwork> make_fabric(
    const FabricGeometry& g) {
  return std::make_unique<conf::DirectConferenceNetwork>(
      min::Kind::kIndirectCube, g.stages,
      conf::DilationProfile::uniform(g.stages, g.dilation));
}

u64 SwitchmodTimes::total_ns() const {
  u64 total = 0;
  for (const CallStats& s : calls) total += s.ns;
  return total;
}

void SwitchmodTimes::add(const SwitchmodTimes& other) {
  for (u32 c = 0; c < kCallKinds; ++c) {
    calls[c].calls += other.calls[c].calls;
    calls[c].ns += other.calls[c].ns;
  }
  setup_failed += other.setup_failed;
  wall_ns += other.wall_ns;
}

void TimedNetwork::note(Call c, u64 start, u64 end,
                        const char* span_name) const {
  ++times_.calls[c].calls;
  times_.calls[c].ns += end - start;
  if (spans != nullptr) spans->add(span_name, request, parent, start, end);
}

std::optional<u32> TimedNetwork::setup(const std::vector<u32>& members) {
  const u64 t0 = now_ns();
  const std::optional<u32> handle = inner_->setup(members);
  const u64 t1 = now_ns();
  note(Call::kSetup, t0, t1, "switchmod.setup");
  if (setup_samples != nullptr) setup_samples->push_back(elapsed_ns(t0, t1));
  if (!handle) ++times_.setup_failed;
  if (stream != nullptr && handle) {
    if (open_of_handle_.size() <= *handle)
      open_of_handle_.resize(*handle + 1, 0);
    open_of_handle_[*handle] = static_cast<u32>(stream->size());
    stream->push_back(StreamOp{true, static_cast<u32>(members.size()), 0,
                               true, stream->size()});
  }
  return handle;
}

void TimedNetwork::teardown(u32 handle) {
  const u64 t0 = now_ns();
  inner_->teardown(handle);
  const u64 t1 = now_ns();
  note(Call::kTeardown, t0, t1, "switchmod.teardown");
  if (teardown_samples != nullptr)
    teardown_samples->push_back(elapsed_ns(t0, t1));
  if (stream != nullptr && handle < open_of_handle_.size())
    stream->push_back(
        StreamOp{false, 0, open_of_handle_[handle], true, stream->size()});
}

bool TimedNetwork::verify_delivery() const {
  const u64 t0 = now_ns();
  const bool ok = inner_->verify_delivery();
  note(Call::kVerify, t0, now_ns(), "switchmod.verify");
  return ok;
}

bool TimedNetwork::add_member(u32 handle, u32 port) {
  const u64 t0 = now_ns();
  const bool ok = inner_->add_member(handle, port);
  note(Call::kAddMember, t0, now_ns(), "switchmod.add_member");
  return ok;
}

bool TimedNetwork::remove_member(u32 handle, u32 port) {
  const u64 t0 = now_ns();
  const bool ok = inner_->remove_member(handle, port);
  note(Call::kRemoveMember, t0, now_ns(), "switchmod.remove_member");
  return ok;
}

}  // namespace confnet::e2e
