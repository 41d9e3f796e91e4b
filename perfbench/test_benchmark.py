#!/usr/bin/env python3
"""Tests of daecc's benchmark itself.

    python3 perfbench/test_benchmark.py

Builds perfbench and its C++ tests the way run.py does, runs them (inputs
are a function of the seed alone; each operation is divided by the host
gauge readings around it), and checks that
the metrics perfbench prints are exactly those BENCHMARK.json names, with
their units.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bdir = run.build(["perfbench", "perfbench_tests"])

    def test_generators_are_seeded(self):
        code, _ = run.run_group([os.path.join(self.bdir, "perfbench_tests")],
                                300)
        self.assertEqual(code, 0)

    def test_printed_metrics_are_named_in_benchmark_json(self):
        out = subprocess.run(
            [os.path.join(self.bdir, "perfbench"), "--list-metrics"],
            capture_output=True, text=True, check=True).stdout
        printed = {"end_to_end": {}, "per_layer": {}}
        for line in out.splitlines():
            kind, name, unit = line.split()
            printed[kind][name] = unit
        end_to_end, per_layer = run.benchmark_spec()
        self.assertEqual(printed["end_to_end"], end_to_end)
        self.assertEqual(printed["per_layer"], per_layer)

    def test_result_with_unlisted_metric_is_rejected(self):
        end_to_end, _ = run.benchmark_spec()
        metrics = {n: {"value": 1.0, "unit": u} for n, u in end_to_end.items()}
        line = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": metrics}
        self.assertEqual(run.check_result(json.dumps(line), end_to_end),
                         line)
        metrics["unlisted"] = {"value": 1.0, "unit": "s"}
        with self.assertRaises(SystemExit):
            run.check_result(json.dumps(line), end_to_end)


if __name__ == "__main__":
    unittest.main()
