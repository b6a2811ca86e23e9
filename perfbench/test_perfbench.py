#!/usr/bin/env python3
"""The benchmark's own test: proves its correctness check fires.

Run from anywhere:  python3 perfbench/test_perfbench.py

Every run here uses the tiny size, whose reference digests for seed 1
are recorded in perfbench/reference.txt next to the full-size ones.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(*args):
    """Run the benchmark; return (exit code, parsed JSON result line)."""
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--size", "tiny",
         "--seconds", "1", "--seed", "1"] + list(args),
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("no output; stderr:\n" + r.stderr)
    return r.returncode, json.loads(lines[-1])


def build_root():
    """Where run.py builds; the test keeps its temporary files there too."""
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.join(ROOT, root)
    os.makedirs(path, exist_ok=True)
    return path


# The traced metrics whose sum is the traced pass's wall time: layer self
# times plus the unattributed rest. The remaining time metrics come from
# work beside each job that the pass leaves out of its wall time.
WALL_PARTS = {
    "sweep": ["sim.machine_ctor_s", "baseline.run_s", "cpr.run_s",
              "core.run_s", "driver.report_s", "trace.unattributed_s"],
    "verify": ["verify.diffrun_s", "verify.shrink_s", "verify.bisect_s",
               "verify.reduce_s", "driver.report_s",
               "trace.unattributed_s"],
}


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    def test_every_workload_matches_its_reference(self):
        for w in declared()["workloads"]:
            with self.subTest(workload=w["name"]):
                code, res = bench("--workload", w["name"], "--trace", "1")
                self.assertEqual(code, 0)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)

                m = {n: v["value"] for n, v in res["metrics"].items()}
                kind = "sweep" if w["name"].startswith("fig") else "verify"
                parts = sum(m[n] for n in WALL_PARTS[kind])
                self.assertAlmostEqual(parts, m["trace.wall_s"],
                                       delta=1e-4 + 1e-3 * parts)

    def test_perturbed_machine_counts_failed_jobs(self):
        # A longer LCS latency changes every MSP rung's cycle count: six
        # of the ladder's eight rungs, in every pass, must fail.
        code, res = bench("--workload", "fig6-int", "--trace", "0",
                          "--set", "lcs.latency=2")
        self.assertNotEqual(code, 0)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"] * 8, res["attempted"] * 6)

    def test_perturbed_verify_batch_fails(self):
        # The commit stream is unchanged, so the oracle stays clean; only
        # the reference digest (cycles) can catch this.
        code, res = bench("--workload", "verify-fuzz", "--trace", "0",
                          "--set", "lcs.latency=2")
        self.assertNotEqual(code, 0)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)

    def test_printed_metrics_are_the_declared_ones(self):
        spec = declared()
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            with self.subTest(trace=trace):
                _, res = bench("--workload", "fig6-int", "--trace", trace)
                printed = {n: m["unit"] for n, m in res["metrics"].items()}
                wanted = {m["name"]: m["unit"] for m in spec[key]}
                self.assertEqual(printed, wanted)

    def test_held_out_seed_checks_determinism_only(self):
        code, res = bench("--workload", "fig6-int", "--trace", "0",
                          "--seed", "7")
        self.assertEqual(code, 0)
        self.assertTrue(res["correct"])

    def test_reference_problems_exit_without_a_result(self):
        with tempfile.TemporaryDirectory(dir=build_root()) as tmp:
            empty = os.path.join(tmp, "empty.txt")
            open(empty, "w").close()
            for path, seed in ((os.path.join(tmp, "missing.txt"), "1"),
                               (empty, "1")):
                with self.subTest(path=os.path.basename(path)):
                    r = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"),
                         "--workload", "fig6-int", "--size", "tiny",
                         "--seconds", "1", "--seed", seed, "--reference",
                         path], cwd=ROOT, capture_output=True, text=True,
                        timeout=600)
                    self.assertEqual(r.returncode, 2)
                    self.assertEqual(r.stdout.strip(), "")
            # A held-out seed has no reference by design.
            code, res = bench("--workload", "fig6-int", "--trace", "0",
                              "--seed", "7", "--reference", empty)
            self.assertEqual(code, 0)
            self.assertTrue(res["correct"])

    def test_bad_arguments_exit_without_a_result(self):
        r = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "no-such-workload"], cwd=ROOT, capture_output=True, text=True,
            timeout=600)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
