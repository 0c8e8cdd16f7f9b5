#!/usr/bin/env python3
"""Self-checks of the repository benchmark (see perfbench/README.md).

    python3 perfbench/test_perfbench.py

- Determinism: two runs of a workload with the same seed, one untraced
  and one traced, report exactly equal deterministic metrics (model
  cycles, fast-tier errors, virtual latencies, every modelled pu./tree./
  dram./mem./spgemm. count, and the serving session's virtual-clock,
  scheduler and cache results).
- Host threads: one tiers-tab3 case gives byte-identical run reports
  and outputs with host threads 1 and 2, on every tier.
- Incomplete checkout: run.py fails without printing a result when the
  simulator sources are missing.

Takes a few minutes; builds into the same directory as run.py.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SEED = 7


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.out = run.build_dir() / "test"
        cls.out.mkdir(parents=True, exist_ok=True)

    def deterministic(self, workload, trace):
        dump = self.out / f"{workload}-trace{trace}.json"
        subprocess.run(
            [str(self.binary), "--workload", workload, "--seed", str(SEED),
             "--seconds", "0", "--trace", str(trace), "--out",
             str(self.out), "--dump", str(dump)],
            check=True, stdout=subprocess.DEVNULL)
        with open(dump) as f:
            return json.load(f)

    def check_repeats(self, workload, expected):
        first = self.deterministic(workload, 0)
        second = self.deterministic(workload, 1)
        for name in expected:
            self.assertIn(name, first)
        self.assertEqual(first, second)

    def test_tiers_tab3_repeats(self):
        self.check_repeats("tiers-tab3", [
            "model_cycles", "sampled_err_pct", "functional_err_pct",
            "bound_coverage_pct", "job_vcycles.p50", "job_vcycles.p99",
            "pu.cycles", "tree.occupancy_mean", "dram.read_blocks",
            "dram.read_latency.p99", "mem.coalesced_pct",
            "spgemm.spilled_blocks", "sampled.windows",
            "accuracy.transpose.P1.1pu.sampled_err_pct"])

    def test_functional_large_repeats(self):
        self.check_repeats("functional-large", [
            "model_cycles", "functional_err_pct", "job_vcycles.p99",
            "pu.cycles", "dram.write_blocks", "spgemm.spilled_blocks",
            "serve.model_cycles", "serve.job_vcycles.p50",
            "serve.job_vcycles.p99", "serve.preemptions",
            "serve.rank_util_pct", "serve.queue_wait_vcycles.p99",
            "serve.cache_hit_pct"])

    def test_host_threads_1_vs_2(self):
        done = subprocess.run(
            [str(self.binary), "--check-threads", "--seed", str(SEED)],
            capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)

    def test_incomplete_checkout_fails(self):
        bare = self.out / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "tiers-tab3",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
            env={"PATH": "/usr/bin:/bin"})
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main(verbosity=2)
