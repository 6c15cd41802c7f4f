#!/usr/bin/env python3
"""Small-size smoke test of the benchmark itself.

    python3 bench/test_smoke.py        (or: python3 -m pytest bench/test_smoke.py)

Runs every workload at --size smoke and checks that every metric is
emitted with its unit, that the traced run emits every per-layer
metric, that a wrong expected value shows up in error_rate, and that
the benchmark refuses to run without the package sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DEFINITION["workloads"]]
# Every end-to-end figure the report prints, by name and unit.
REPORTED = {
    "setup_s": "s", "setup_cpu_s": "s", "setup_wall_s": "s", "body_s": "s",
    "body_cpu_s": "s", "wall_s": "s",
    "peak_rss_mb": "MB", "error_rate": "ratio", "solve_states_per_s": "1/s",
    "verified_instances_per_s": "1/s", "br_vertices_per_s": "1/s",
}


def bench(workload, *extra, trace=0, cwd=ROOT, run_py=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    reported = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split("#")[0].split()
            reported[name] = (value, unit)
    return result, reported


class SmokeTest(unittest.TestCase):
    def check_result_shape(self, result, expected_units):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(expected_units))
        for name, unit in expected_units.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            self.assertIsInstance(result["metrics"][name]["value"], (int, float), name)

    def test_end_to_end_metrics(self):
        units = {m["name"]: m["unit"] for m in DEFINITION["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench(workload)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result, reported = parse(proc)
                self.check_result_shape(result, units)
                self.assertTrue(result["correct"], proc.stdout)
                self.assertEqual(result["failed"], 0)
                for name, value in result["metrics"].items():
                    self.assertGreater(value["value"], 0, name)
                self.assertEqual({n: u for n, (_, u) in reported.items()}, REPORTED)
                self.assertEqual(float(reported["error_rate"][0]), 0.0)
                self.assertIn("# env nproc=", proc.stdout)
                self.assertIn("# input ", proc.stdout)

    def test_per_layer_metrics(self):
        units = {m["name"]: m["unit"] for m in DEFINITION["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench(workload, trace=1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result, _ = parse(proc)
                self.check_result_shape(result, units)
                self.assertTrue(result["correct"], proc.stdout)
                metrics = {n: v["value"] for n, v in result["metrics"].items()}
                self.assertGreater(metrics["trace.overhead_ratio"], 0)
                if workload == "best-response":
                    self.assertEqual(metrics["solver.calls"], 0)
                    self.assertGreater(metrics["tree_strategies.respond_calls"], 0)
                else:
                    self.assertGreater(metrics["solver.calls"], 0)
                if workload == "verify-corpus":
                    self.assertGreater(metrics["cli.lines"], 0)
                    self.assertGreater(metrics["bounds.c4_calls"], 0)
                self.assertIn("# exclusive_s layer=", proc.stdout)

    def test_wrong_expected_value_is_counted(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench(workload, "--inject-wrong-expected")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result, reported = parse(proc)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertGreater(float(reported["error_rate"][0]), 0.0)
                self.assertIn("# FAIL ", proc.stdout)

    def test_refuses_to_run_without_package_sources(self):
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench(WORKLOADS[0], cwd=tmp, run_py=Path(tmp) / HERE.name / "run.py")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
