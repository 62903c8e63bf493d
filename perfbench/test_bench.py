#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, untraced and traced.

usage: python3 perfbench/test_bench.py

Runs run.py --smoke (tiny sizes, seed 42) and requires correct results with
every metric that BENCHMARK.json names.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class SmokeTest(unittest.TestCase):
    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seconds", "0", "--trace", str(trace), "--smoke"],
            capture_output=True, text=True, cwd=ROOT, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_workloads(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_bench(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in spec[kind]})


if __name__ == "__main__":
    unittest.main()
