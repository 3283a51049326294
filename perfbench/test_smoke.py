#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, untraced and traced.

    python3 perfbench/test_smoke.py

Run from the top of the repository (about two minutes on four cores).
Each workload runs for the shortest time (one sweep or one replay) on
seed 2, which is not the seed used while writing the benchmark. The test
asserts that the run prints exactly the metrics BENCHMARK.json names for
that mode, each with its unit, and that every correctness check passed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 2
# Workloads the program runs that BENCHMARK.json does not list (see the
# README's "Steadiness" section).
HAND_RUN = ["fattree-k12-plan"]


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{out.returncode}:\n{out.stderr[-2000:]}")
    return out.stdout


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        spec = bench_spec()
        stdout = run(workload, trace)
        result = json.loads(stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], stdout)
        self.assertEqual(result["failed"], 0, stdout)
        self.assertGreater(result["attempted"], 0)
        wanted = spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        for m in spec["end_to_end"]:  # the report names each one with its unit
            self.assertRegex(stdout, rf"\n  {m['name']} +\S+ +{m['unit']}\n")

    def test_workloads(self):
        names = [w["name"] for w in bench_spec()["workloads"]]
        for name in names + HAND_RUN:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    self.check(name, trace)


if __name__ == "__main__":
    unittest.main()
