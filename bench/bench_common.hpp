// Shared helpers for the experiment harness binaries. Every bench prints
// the reconstructed paper artifact (table or figure series) to stdout and
// then runs its google-benchmark timing section, so
//   for b in build/bench/*; do $b; done
// regenerates the full evaluation.
//
// Machine-readable export: every binary also accepts
//   --json=<path>    write the full report (experiment metadata, every
//                    table, a metrics-registry snapshot) as one JSON
//                    document conforming to tools/bench_schema.json;
//   --trace=<path>   arm the obs::Tracer before the tables run and dump
//                    the JSON-lines trace on exit.
// so `for b in build/bench/*; do $b --json=BENCH_$(basename $b).json; done`
// produces diffable artifacts (see tools/compare_bench.py and
// EXPERIMENTS.md "Regenerating the evaluation").
#pragma once

#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

namespace confnet::bench {

/// Collects everything a bench binary shows so the optional --json emitter
/// can replay it as structured data. One instance per process.
class Report {
 public:
  static Report& instance() {
    static Report r;
    return r;
  }

  void set_experiment(std::string experiment, std::string artifact,
                      std::string question) {
    experiment_ = std::move(experiment);
    artifact_ = std::move(artifact);
    question_ = std::move(question);
  }

  void add_table(const util::Table& t) { tables_.push_back(t); }

  void add_note(std::string note) { notes_.push_back(std::move(note)); }

  /// The full artifact: metadata, tables, notes, metrics snapshot, trace
  /// accounting. Schema: tools/bench_schema.json.
  void write_json(std::ostream& os, const std::string& binary) const {
    util::JsonWriter w(os);
    w.begin_object();
    w.key("confnet_bench");
    w.value(std::uint64_t{2});
    w.key("experiment");
    w.value(experiment_);
    w.key("artifact");
    w.value(artifact_);
    w.key("question");
    w.value(question_);
    w.key("generated_by");
    w.value(binary);
    w.key("tables");
    w.begin_array();
    for (const util::Table& t : tables_) {
      w.begin_object();
      w.key("title");
      w.value(t.title());
      w.key("columns");
      w.begin_array();
      for (const std::string& c : t.columns()) w.value(c);
      w.end_array();
      w.key("rows");
      w.begin_array();
      for (const auto& row : t.rows()) {
        w.begin_array();
        for (const std::string& cell : row) w.value(cell);
        w.end_array();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.key("notes");
    w.begin_array();
    for (const std::string& n : notes_) w.value(n);
    w.end_array();
    w.key("metrics");
    {
      std::ostringstream metrics_json;
      obs::Registry::global().write_json(metrics_json);
      w.raw(metrics_json.str());
    }
    w.key("trace");
    {
      const obs::Tracer& tracer = obs::Tracer::global();
      w.begin_object();
      w.key("enabled");
      w.value(tracer.enabled());
      w.key("events");
      w.value(static_cast<std::uint64_t>(tracer.size()));
      w.key("dropped");
      w.value(tracer.dropped());
      w.end_object();
    }
    w.end_object();
    os << '\n';
  }

 private:
  std::string experiment_;
  std::string artifact_;
  std::string question_;
  std::vector<util::Table> tables_;
  std::vector<std::string> notes_;
};

inline void print_header(const std::string& experiment,
                         const std::string& paper_artifact,
                         const std::string& question) {
  Report::instance().set_experiment(experiment, paper_artifact, question);
  std::cout << "\n=================================================================\n"
            << experiment << " — reconstruction of " << paper_artifact << "\n"
            << question << "\n"
            << "=================================================================\n";
}

inline void show(const util::Table& table) {
  Report::instance().add_table(table);
  table.print(std::cout);
  std::cout << '\n';
}

/// Value of the optional --workers flag (e.g. "1,2,4"), consumed before
/// google-benchmark parses argv. Empty when not given; benches that scale
/// across worker threads (bench_e15_runtime) read it during emit_tables to
/// register one timing row per requested worker count.
inline std::string& workers_flag() {
  static std::string v;
  return v;
}

/// Parse `workers_flag()` as a comma-separated list, falling back to
/// `defaults` when the flag was absent or empty.
inline std::vector<unsigned> parse_workers(std::vector<unsigned> defaults) {
  const std::string& flag = workers_flag();
  if (flag.empty()) return defaults;
  std::vector<unsigned> out;
  std::string token;
  std::istringstream in(flag);
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    out.push_back(static_cast<unsigned>(std::stoul(token)));
  }
  return out.empty() ? defaults : out;
}

/// Consume the harness-specific flags (--json=<path>, --trace=<path>,
/// --workers=<list>) from argv before google-benchmark sees them. Returns
/// the path values by reference; the workers list lands in workers_flag().
inline void strip_harness_flags(int& argc, char** argv, std::string& json_path,
                                std::string& trace_path) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(std::strlen("--json="));
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(std::strlen("--trace="));
    } else if (arg.rfind("--workers=", 0) == 0) {
      workers_flag() = arg.substr(std::strlen("--workers="));
    } else if (arg == "--workers" && i + 1 < argc) {
      workers_flag() = argv[++i];
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
}

/// The common main body: emit tables, run benchmarks, write artifacts.
/// Returns the process exit status.
inline int run_main(int argc, char** argv, void (*emit_tables_fn)()) {
  std::string json_path;
  std::string trace_path;
  strip_harness_flags(argc, argv, json_path, trace_path);
  if (!trace_path.empty()) obs::Tracer::global().enable(std::size_t{1} << 16);

  emit_tables_fn();

  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot open --json path: " << json_path << '\n';
      return 1;
    }
    const std::string binary = argc > 0 ? argv[0] : "bench";
    const std::size_t slash = binary.find_last_of('/');
    Report::instance().write_json(
        out, slash == std::string::npos ? binary : binary.substr(slash + 1));
    std::cout << "wrote JSON report to " << json_path << '\n';
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::cerr << "cannot open --trace path: " << trace_path << '\n';
      return 1;
    }
    obs::Tracer::global().dump_jsonl(out);
    std::cout << "wrote trace dump to " << trace_path << '\n';
  }
  return 0;
}

/// Standard main: emit tables first, then any registered benchmarks, then
/// the optional --json / --trace artifacts.
#define CONFNET_BENCH_MAIN(emit_tables_fn)                         \
  int main(int argc, char** argv) {                                \
    return ::confnet::bench::run_main(argc, argv, emit_tables_fn); \
  }

}  // namespace confnet::bench
