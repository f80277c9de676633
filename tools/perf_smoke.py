#!/usr/bin/env python3
"""Run the hot-path benchmark sections and merge them into one artifact.

Usage:
    python3 tools/perf_smoke.py [--build-dir DIR] [--out BENCH_pr12.json]
        [--min-time SECONDS]

Runs the BM_* timing sections of the benchmark binaries that cover the
optimized hot paths:

  * bench_e2_multiplicity  — BM_MeasureMultiplicity (allocation-free
    kernel) vs BM_MeasureMultiplicityReference (row-vector oracle);
  * bench_e4_load_multiplicity — BM_MonteCarloTrial (parallel fan-out) vs
    BM_MonteCarloTrialSerialReference;
  * bench_e8_latency — BM_SteadyStateEventRate/0 (DES event rate with
    frequent incremental FabricState verification);
  * bench_e14_admission — BM_AdmissionChurn (bitmap port index vs the
    reference placer oracle, N=1024 high churn) and
    BM_TeletrafficAdmission/0/1 and /0/8 (end-to-end DES admission on the
    fast placer, serial vs batched arrivals);
  * bench_e15_runtime — BM_RuntimeChurn at --workers 1,2,4 (thread-per-
    shard concurrent runtime over 4 shards; one item is one admission
    decision; the admitted/blocked/decisions counters are worker-count
    invariant and gated, wall time is the scaling curve);
  * bench_e6_blocking — BM_PropagateSimd (bitset-row signal plane, label =
    resolved backend) vs BM_PropagateReference (retained set-based oracle)
    over one deterministically populated fabric; the fan-op counters are
    seed-determined and identical across backends;
  * bench_e16_cluster — BM_ClusterIntraChurn vs BM_ClusterSpanChurn at
    --workers 1,2 (trunked multi-fabric cluster; spanning conferences go
    through the single-round claim/open/settle protocol).

Each binary writes a native google-benchmark JSON file; the tool merges
them into one document whose top-level "benchmarks" array carries
binary-prefixed names ("bench_e2_multiplicity/BM_MeasureMultiplicity/6"),
ready for tools/compare_bench.py's timing section:

    python3 tools/perf_smoke.py --out BENCH_new.json
    python3 tools/compare_bench.py BENCH_pr12.json BENCH_new.json --warn-only

Worker-count invariance is checked here, not in compare_bench.py: rows of
the same benchmark differing only in their /workers:N suffix must report
byte-identical user counters. A 1-core CI runner cannot verify the
multi-worker *scaling* claim (every worker count shows the same wall
time), but it CAN verify the determinism claim — admitted/blocked/lane
counters independent of worker count — which needs no parallel speedup to
observe. A divergence fails the run regardless of runner core count.

Exit status: 0 = all binaries ran and the invariance check held,
1 = a binary failed or counters diverged across worker counts,
2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# (binary, benchmark_filter, extra_flags) — filters keep the smoke run
# focused on the hot-path sections (bench_e8 also registers a slow
# talk-spurt benchmark); extra flags are harness-level (consumed before
# google-benchmark parses argv).
TARGETS = (
    ("bench_e2_multiplicity", "BM_MeasureMultiplicity", ()),
    ("bench_e4_load_multiplicity", "BM_MonteCarloTrial", ()),
    ("bench_e8_latency", "BM_SteadyStateEventRate", ()),
    ("bench_e14_admission", "BM_", ()),
    ("bench_e15_runtime", "BM_RuntimeChurn", ("--workers=1,2,4",)),
    ("bench_e6_blocking", "BM_Propagate", ()),
    ("bench_e16_cluster", "BM_Cluster", ("--workers=1,2",)),
)

SEARCH_DIRS = ("build/bench", "build/release/bench")

# Google-benchmark entry members that are not user counters (mirrors
# tools/compare_bench.py's BENCH_STANDARD_KEYS; the derived *_per_second
# rates carry timing noise and are excluded from the invariance check).
STANDARD_KEYS = frozenset({
    "name", "run_name", "run_type", "repetitions", "repetition_index",
    "threads", "iterations", "real_time", "cpu_time", "time_unit",
    "family_index", "per_family_instance_index", "aggregate_name",
    "aggregate_unit", "label", "big_o", "rms",
    "items_per_second", "bytes_per_second",
})

WORKERS_RE = re.compile(r"/workers:\d+")


def find_binary(build_dir: Path | None, name: str) -> Path | None:
    dirs = [build_dir / "bench", build_dir] if build_dir else \
        [Path(d) for d in SEARCH_DIRS]
    for d in dirs:
        candidate = d / name
        if candidate.is_file():
            return candidate
    return None


def run_one(binary: Path, bench_filter: str, extra_flags: tuple[str, ...],
            min_time: float, out_path: Path) -> dict:
    cmd = [
        str(binary),
        *extra_flags,
        f"--benchmark_filter={bench_filter}",
        f"--benchmark_out={out_path}",
        "--benchmark_out_format=json",
    ]
    if min_time > 0:
        # Bare seconds, not the "0.2s" spelling: the pinned google-benchmark
        # still parses the flag as a double.
        cmd.append(f"--benchmark_min_time={min_time:g}")
    print(f"+ {' '.join(cmd)}", flush=True)
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return json.loads(out_path.read_text(encoding="utf-8"))


def check_workers_invariance(benchmarks: list[dict]) -> list[str]:
    """Group rows differing only in /workers:N; require identical counters.

    Returns human-readable violation lines (empty = invariant held). This
    is the determinism half of the multi-worker claim — checkable even on
    a 1-core runner, where the wall-time scaling half is not.
    """
    groups: dict[str, dict[str, dict[str, float]]] = {}
    for entry in benchmarks:
        name = entry.get("name", "")
        if entry.get("run_type") == "aggregate" or "/workers:" not in name:
            continue
        counters = {k: v for k, v in entry.items()
                    if k not in STANDARD_KEYS and isinstance(v, (int, float))}
        groups.setdefault(WORKERS_RE.sub("", name), {})[name] = counters
    violations: list[str] = []
    for family, rows in sorted(groups.items()):
        if len(rows) < 2:
            continue
        names = sorted(rows)
        ref_name, ref = names[0], rows[names[0]]
        for name in names[1:]:
            for key in sorted(set(ref) | set(rows[name])):
                a, b = ref.get(key), rows[name].get(key)
                if a != b:
                    violations.append(
                        f"{family}: counter {key} differs across worker "
                        f"counts ({ref_name}={a!r} vs {name}={b!r})")
    return violations


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run hot-path benchmarks, merge into one JSON artifact.")
    parser.add_argument("--build-dir", type=Path, default=None,
                        help="build tree holding bench/ (default: search "
                             f"{', '.join(SEARCH_DIRS)})")
    parser.add_argument("--out", type=Path, default=Path("BENCH_pr12.json"))
    parser.add_argument("--min-time", type=float, default=0.0,
                        help="--benchmark_min_time per benchmark (seconds); "
                             "0 keeps the google-benchmark default")
    args = parser.parse_args()

    merged: dict = {"perf_smoke": 1, "contexts": {}, "benchmarks": []}
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, bench_filter, extra_flags in TARGETS:
            binary = find_binary(args.build_dir, name)
            if binary is None:
                print(f"SKIP {name}: binary not found (build the bench "
                      "targets first)", file=sys.stderr)
                failures += 1
                continue
            try:
                doc = run_one(binary, bench_filter, extra_flags,
                              args.min_time, Path(tmp) / f"{name}.json")
            except subprocess.CalledProcessError as exc:
                print(f"FAIL {name}: exit {exc.returncode}", file=sys.stderr)
                failures += 1
                continue
            merged["contexts"][name] = doc.get("context", {})
            for entry in doc.get("benchmarks", []):
                entry = dict(entry)
                entry["name"] = f"{name}/{entry.get('name', '?')}"
                if "run_name" in entry:
                    entry["run_name"] = f"{name}/{entry['run_name']}"
                merged["benchmarks"].append(entry)

    violations = check_workers_invariance(merged["benchmarks"])
    for line in violations:
        print(f"INVARIANCE FAIL: {line}", file=sys.stderr)
    if not violations:
        checked = sum(
            1 for e in merged["benchmarks"]
            if "/workers:" in e.get("name", ""))
        print(f"workers-invariance: {checked} multi-worker rows, "
              "counters identical across worker counts")

    args.out.write_text(json.dumps(merged, indent=2) + "\n",
                        encoding="utf-8")
    print(f"wrote {len(merged['benchmarks'])} benchmark rows to {args.out}")
    return 1 if failures or violations else 0


if __name__ == "__main__":
    sys.exit(main())
