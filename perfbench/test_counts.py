"""Checks on the benchmark itself: every metric BENCHMARK.json names is
printed, and the deterministic counts of a traced run repeat exactly for a
seed. Takes about two minutes.

    python3 perfbench/test_counts.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkChecks(unittest.TestCase):
    def test_counts_repeat_for_a_seed(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = run(workload, 7, 1), run(workload, 7, 1)
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(list(first["metrics"]), names)
                counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
                self.assertEqual(counts, {k: second["metrics"][k]["value"] for k in counts})

    def test_end_to_end_metrics_are_printed_and_nonzero(self):
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run(workload, 3, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)
                self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))


if __name__ == "__main__":
    unittest.main()
