#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload tiers-tab3 --seed 1 --seconds 15 --trace 0

Builds the simulator and the benchmark binary from this checkout's
sources (into .bench_build/, or $CARGO_TARGET_DIR when set), runs the
workload, and prints every metric with its unit. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics, and the spans of the
traced run are written under the build directory. Exits non-zero,
without a result line, when the build or the run fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))


def build():
    """Configure and build menda_perfbench; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no simulator sources under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    cmake_dir = out / "cmake"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(cmake_dir), "--target", "menda_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return cmake_dir / "menda_perfbench"


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def with_units(raw, spec, trace):
    """Attach units to the binary's metrics and check their names.

    End-to-end metrics must all be present. A per-layer metric of a
    layer the workload does not exercise is absent from the binary's
    output and reads 0. A name BENCHMARK.json does not list is an error.
    """
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    unknown = sorted(set(raw) - set(units))
    if unknown:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {unknown}")
    missing = sorted(set(units) - set(raw))
    if missing and not trace:
        raise RuntimeError(f"end-to-end metrics missing: {missing}")
    metrics = {}
    for name, unit in units.items():
        value = float(raw.get(name, 0.0))
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; expected one of {names}")
        return 2
    try:
        binary = build()
    except (RuntimeError, OSError) as e:
        log(str(e))
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--out", str(build_dir() / "out")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    if done.returncode != 0:
        log(f"benchmark binary exited with {done.returncode}")
        return 1
    try:
        raw = json.loads(done.stdout.strip().splitlines()[-1])
        metrics = with_units(raw["metrics"], spec, args.trace == 1)
    except (IndexError, KeyError, ValueError, RuntimeError) as e:
        log(f"bad benchmark output: {e}")
        return 1

    for name, m in metrics.items():
        print(f"{name:58s} {m['value']:>18.6g} {m['unit']}")
    print(f"attempted {raw['attempted']}, failed {raw['failed']}")
    print(json.dumps({"correct": bool(raw["correct"]),
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
