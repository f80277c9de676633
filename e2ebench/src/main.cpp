// confnet_e2e: end-to-end admission benchmark.
//
//   confnet_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//   confnet_e2e --smoke
//
// A run first plays kReferenceRounds rounds on fixed inputs, the same on
// every run whatever the seed: they warm the process up and give
// blocking_pct, which is therefore exact. Then it runs rounds on inputs
// drawn from the seed until the measured time reaches --seconds, taking
// kSetupPerRound set-up samples (construction + start of the workload's
// system) before each. Every outcome is checked. setup_s is the median of
// the set-up samples; each round timing (ops_per_s, open_p50_us, ...) is
// the median over rounds of the round's value.
//
// The result line of --trace 0 carries the gated end-to-end metrics. The
// round timings are printed above it but gated nowhere: on a shared host
// they move with the host's load far more than their bounds allow.
//
// With --trace 1 untraced and traced rounds alternate, then the layer
// probes and replays run, the spans of the last traced round and of the
// replays are written as JSONL to .bench_out/, and the result line carries
// the per-layer metrics, the round timings of the untraced rounds among
// them. The last line of standard output is always the JSON result.
//
// --smoke runs every workload at a tenth of a round, untraced and traced
// with the layer replays, and exits non-zero on any failed check.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace confnet::e2e {
namespace {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"intra_churn", "span_churn",
                                              "runtime_open",
                                              "des_teletraffic"};
  return names;
}

/// nullptr for an unknown name. `scale` shrinks each round (1.0 = the
/// measured benchmark, 0.1 = the smoke test).
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Pinning& pinning, double scale) {
  if (name == "intra_churn") return make_intra_churn(pinning, scale);
  if (name == "span_churn") return make_span_churn(pinning, scale);
  if (name == "runtime_open") return make_runtime_open(pinning, scale);
  if (name == "des_teletraffic") return make_des_teletraffic(pinning, scale);
  return nullptr;
}

constexpr u32 kWorkers = 2;
constexpr int kSetupPerRound = 4;
constexpr u64 kReferenceRounds = 4;
constexpr u64 kReferenceSeed = 0x5eed;
// One traced round and the layer replays of its streams, with room to
// spare: the largest (runtime_open) records about 80k spans.
constexpr std::size_t kSpanCapacity = std::size_t{1} << 19;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

/// Per-round samples of one phase (untraced or traced) of a run.
struct Phase {
  std::vector<double> ops_per_s, events_per_s, open_p50, open_p90, open_p99,
      close_p50;
  u64 ops = 0;
  u64 opens = 0;
  u64 blocked = 0;
  u64 failed = 0;

  void add(Round& r) {
    ops_per_s.push_back(static_cast<double>(r.ops) / r.window_s);
    events_per_s.push_back(static_cast<double>(r.events) / r.window_s);
    open_p50.push_back(quantile_us(r.open_ns, 0.50));
    open_p90.push_back(quantile_us(r.open_ns, 0.90));
    open_p99.push_back(quantile_us(r.open_ns, 0.99));
    close_p50.push_back(quantile_us(r.close_ns, 0.50));
    ops += r.ops;
    opens += r.opens;
    blocked += r.blocked;
    failed += r.failed;
  }

  /// The round timings: the median over rounds of each round's value.
  [[nodiscard]] std::vector<Metric> timings() const {
    return {
        {"ops_per_s", median(ops_per_s), "1/s"},
        {"events_per_s", median(events_per_s), "1/s"},
        {"open_p50_us", median(open_p50), "us"},
        {"open_p90_us", median(open_p90), "us"},
        {"open_p99_us", median(open_p99), "us"},
        {"close_p50_us", median(close_p50), "us"},
    };
  }
};

/// One round; an exception fails the round instead of ending the run.
Round run_one(Workload& w, u64 seed, SpanBuffer* spans) {
  Round r;
  try {
    w.run_round(seed, spans, r);
  } catch (const std::exception& e) {
    std::cerr << "round threw: " << e.what() << '\n';
    ++r.failed;
    r.window_s = 1e-9;
  }
  return r;
}

/// Run rounds until `seconds` of measured time, each on fresh inputs, with
/// set-up samples before each. With a span buffer, untraced and traced
/// rounds alternate, so a change in the host's speed during the run lands
/// on both alike; each traced round starts from an empty buffer.
void run_rounds(Workload& w, u64 seed, double seconds, SpanBuffer* spans,
                std::vector<double>& setups, Phase& untraced, Phase& traced) {
  double measured = 0.0;
  u64 round = 0;
  do {
    for (int i = 0; i < kSetupPerRound; ++i)
      setups.push_back(w.setup_sample());
    const bool trace_this = spans != nullptr && round % 2 == 1;
    if (trace_this) spans->clear();
    Round r = run_one(w, mix_seed(seed, round), trace_this ? spans : nullptr);
    ++round;
    measured += r.window_s;
    (trace_this ? traced : untraced).add(r);
  } while (measured < seconds || (spans != nullptr && traced.ops == 0));
}

std::string number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << (std::isfinite(v) ? v : 0.0);
  return os.str();
}

void print_result(bool correct, u64 attempted, u64 failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << '"' << metrics[i].name
              << "\": {\"value\": " << number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void print_lines(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::cout << std::left << std::setw(34) << m.name << ' '
              << std::setw(14) << number(m.value) << ' ' << m.unit << '\n';
}

/// The gated end-to-end metrics, in the order of BENCHMARK.json.
/// verified_pct is the share of operations with a valid, checked verdict:
/// 100 - failed_pct, kept in this form because a gated metric is never 0.
std::vector<Metric> end_to_end(const std::vector<double>& setups,
                               const Phase& reference, u64 attempted,
                               u64 failed) {
  const double verified =
      attempted == 0 ? 0.0
                     : 100.0 *
                           static_cast<double>(attempted -
                                               std::min(failed, attempted)) /
                           static_cast<double>(attempted);
  return {
      {"setup_s", median(setups), "s"},
      {"blocking_pct",
       100.0 * static_cast<double>(reference.blocked) /
           static_cast<double>(std::max<u64>(reference.opens, 1)),
       "%"},
      {"verified_pct", verified, "%"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

int run(const Options& opt) {
  const Pinning pinning(kWorkers);
  auto w = make_workload(opt.workload, pinning, 1.0);
  if (!w) {
    std::cerr << "unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  std::cout << "workload=" << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << opt.trace
            << " pinned=" << (pinning.pinned() ? "true" : "false") << '\n';

  Phase reference;
  for (u64 r = 0; r < kReferenceRounds; ++r) {
    Round round = run_one(*w, mix_seed(kReferenceSeed, r), nullptr);
    reference.add(round);
  }
  std::vector<double> setups;
  Phase untraced;
  Phase traced;
  SpanBuffer spans(opt.trace ? kSpanCapacity : 0);
  run_rounds(*w, opt.seed, opt.seconds, opt.trace ? &spans : nullptr, setups,
             untraced, traced);
  const u64 attempted = reference.ops + untraced.ops + traced.ops;
  u64 failed = reference.failed + untraced.failed + traced.failed;
  const std::vector<Metric> timings = untraced.timings();
  if (!opt.trace) {
    const std::vector<Metric> e2e =
        end_to_end(setups, reference, attempted, failed);
    print_lines(timings);
    print_lines(e2e);
    print_result(failed == 0, attempted, failed, e2e);
    return 0;
  }

  LayerInputs inputs = w->layer_inputs();
  for (const Metric& m : timings) inputs.values.emplace_back(m.name, m.value);
  const double base = median(untraced.ops_per_s);
  inputs.values.emplace_back(
      "trace.overhead_pct",
      100.0 * (base - median(traced.ops_per_s)) / base);
  const LayerReport layers = layer_report(inputs, pinning, 1.0, &spans);
  failed += layers.failed;
  print_lines(layers.metrics);

  const std::string path =
      ".bench_out/spans-" + opt.workload + "-" + std::to_string(opt.seed) +
      ".jsonl";
  std::error_code ec;
  std::filesystem::create_directories(".bench_out", ec);
  std::ofstream out(path);
  if (out) spans.write_jsonl(out);
  const bool written = static_cast<bool>(out);
  std::cout << "spans " << spans.size() << " (dropped " << spans.dropped()
            << ") -> " << (written ? path : "not written") << '\n';
  print_result(failed == 0 && spans.dropped() == 0 && written, attempted,
               failed, layers.metrics);
  return 0;
}

/// Every workload at a tenth of a round, untraced then traced with the
/// layer replays; fails on any failed check, dropped span or empty round.
int smoke() {
  const Pinning pinning(kWorkers);
  constexpr double kScale = 0.1;
  bool ok = true;
  for (const std::string& name : workload_names()) {
    auto w = make_workload(name, pinning, kScale);
    (void)w->setup_sample();
    SpanBuffer spans(kSpanCapacity);
    Round plain;
    Round traced;
    u64 failed = 0;
    try {
      w->run_round(mix_seed(1, 0), nullptr, plain);
      w->run_round(mix_seed(1, 1), &spans, traced);
      failed = plain.failed + traced.failed +
               layer_report(w->layer_inputs(), pinning, kScale, &spans).failed;
    } catch (const std::exception& e) {
      std::cerr << name << " threw: " << e.what() << '\n';
      ++failed;
    }
    const bool pass = failed == 0 && spans.dropped() == 0 && plain.ops > 0 &&
                      traced.ops > 0;
    std::cout << name << ": ops=" << plain.ops + traced.ops
              << " failed=" << failed << " spans=" << spans.size()
              << (pass ? " ok" : " FAIL") << '\n';
    ok = ok && pass;
  }
  return ok ? 0 : 1;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--smoke" && i + 1 < argc) {
      value = argv[++i];
    }
    try {
      if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return opt.smoke || (!opt.workload.empty() && opt.seconds > 0.0);
}

}  // namespace
}  // namespace confnet::e2e

int main(int argc, char** argv) {
  using namespace confnet::e2e;
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::cerr << "usage: confnet_e2e --workload <";
    for (std::size_t i = 0; i < workload_names().size(); ++i)
      std::cerr << (i ? "|" : "") << workload_names()[i];
    std::cerr << "> [--seed N] [--seconds S] [--trace 0|1]\n"
                 "       confnet_e2e --smoke\n";
    return 2;
  }
  return opt.smoke ? smoke() : run(opt);
}
