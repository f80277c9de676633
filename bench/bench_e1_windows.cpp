// E1 (Table 1): window structure of the class.
//
// For every topology and interstage level, the In/Out reachability windows
// of a link are arithmetic progressions; their *shape* (aligned block vs
// stride residue class) is the structural property that decides whether
// the network can be directly adopted as a conference network (R2). This
// bench prints the shape table and cross-checks closed forms against BFS
// reachability up to N=256.
#include "bench_common.hpp"
#include "min/network.hpp"
#include "min/windows.hpp"

namespace confnet {
namespace {

using min::Kind;
using min::u32;

void emit_tables() {
  bench::print_header(
      "E1", "Table 1 (window structure of the class)",
      "Which networks have 'orthogonal' windows (the precondition for "
      "conflict-free aligned placement)?");

  {
    util::Table t("Window shapes at interstage level l (any link), N = 2^n",
                  {"network", "In(l) shape", "|In(l)|", "Out(l) shape",
                   "|Out(l)|", "In x Out", "orthogonal?"});
    const u32 n = 8, level = 4, row = 100;
    for (Kind kind : min::kAllKinds) {
      const auto in_w = min::in_window(kind, n, level, row);
      const auto out_w = min::out_window(kind, n, level, row);
      const std::string cross = std::string(min::shape_name(in_w.shape)) +
                                " x " + std::string(min::shape_name(out_w.shape));
      t.row()
          .cell(std::string(min::kind_name(kind)))
          .cell(std::string(min::shape_name(in_w.shape)))
          .cell("2^l")
          .cell(std::string(min::shape_name(out_w.shape)))
          .cell("2^(n-l)")
          .cell(cross)
          .cell(min::has_block_block_windows(kind) ? "no" : "yes");
    }
    bench::show(t);
  }

  {
    util::Table t("Closed-form windows vs BFS reachability (exhaustive)",
                  {"network", "n", "links checked", "mismatches"});
    for (Kind kind : min::kAllKinds) {
      for (u32 n : {4u, 6u, 8u}) {
        const min::Network net(kind, n);
        const min::WindowTable wt(net);
        u32 mismatches = 0;
        u32 checked = 0;
        for (u32 level = 0; level <= n; ++level) {
          for (u32 p = 0; p < net.size(); ++p) {
            ++checked;
            const auto in_w = min::in_window(kind, n, level, p);
            const auto out_w = min::out_window(kind, n, level, p);
            if (wt.in_set(level, p).count() != in_w.size) ++mismatches;
            if (wt.out_set(level, p).count() != out_w.size) ++mismatches;
            for (u32 i = 0; i < in_w.size; ++i)
              if (!wt.in_set(level, p).test(in_w.element(i))) {
                ++mismatches;
                break;
              }
            for (u32 i = 0; i < out_w.size; ++i)
              if (!wt.out_set(level, p).test(out_w.element(i))) {
                ++mismatches;
                break;
              }
          }
        }
        t.row()
            .cell(std::string(min::kind_name(kind)))
            .cell(n)
            .cell(checked)
            .cell(mismatches);
      }
    }
    bench::show(t);
  }

  {
    util::Table t("Example: concrete windows of link (level=2, row=5), N=16",
                  {"network", "In elements", "Out elements"});
    const u32 n = 4, level = 2, row = 5;
    for (Kind kind : min::kAllKinds) {
      const auto in_w = min::in_window(kind, n, level, row);
      const auto out_w = min::out_window(kind, n, level, row);
      std::string ins, outs;
      for (u32 i = 0; i < in_w.size; ++i)
        ins += (i ? "," : "") + std::to_string(in_w.element(i));
      for (u32 i = 0; i < out_w.size; ++i)
        outs += (i ? "," : "") + std::to_string(out_w.element(i));
      t.row().cell(std::string(min::kind_name(kind))).cell(ins).cell(outs);
    }
    bench::show(t);
  }
}

void BM_WindowTableConstruction(benchmark::State& state) {
  const u32 n = static_cast<u32>(state.range(0));
  for (auto _ : state) {
    const min::WindowTable wt(min::Network(Kind::kOmega, n));
    benchmark::DoNotOptimize(wt.in_set(n / 2, 0).count());
  }
  state.SetLabel("N=" + std::to_string(1u << n));
}
BENCHMARK(BM_WindowTableConstruction)->DenseRange(6, 10, 2);

void BM_ClosedFormWindowQuery(benchmark::State& state) {
  const u32 n = static_cast<u32>(state.range(0));
  u32 row = 0;
  for (auto _ : state) {
    const auto w = min::in_window(Kind::kBaseline, n, n / 2, row);
    benchmark::DoNotOptimize(w.contains(row / 2));
    row = (row + 1) & ((1u << n) - 1);
  }
}
BENCHMARK(BM_ClosedFormWindowQuery)->DenseRange(6, 14, 4);

}  // namespace
}  // namespace confnet

CONFNET_BENCH_MAIN(confnet::emit_tables)
