#!/usr/bin/env python3
"""Tests of AVScope's benchmark.

  - BENCHMARK.json: every metric and workload name is unique and
    matches [A-Za-z0-9_.-]+, units and bounds are well-formed;
  - a smoke-size run of every workload, untraced and traced, whose
    result line follows the output schema and names exactly the
    metrics BENCHMARK.json lists, with every check passing;
  - simulated metrics repeat exactly across Runner job counts.

Run from the repository root after building the binary:

    python3 avbench/test_bench.py --binary .bench_build/avbench

or through the avbench CMake project's `ctest`.
"""

import argparse
import json
import math
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
BINARY = ROOT / ".bench_build" / "avbench"


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, seed=7, jobs=None):
    """Smoke-size run; returns (exit code, stdout, result object)."""
    out = BINARY.parent / "test-out"
    out.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", "0.01", "--trace", str(trace), "--out",
               str(out), "--smoke"]
    if jobs is not None:
        command += ["--jobs", str(jobs)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, done.stdout, result


class BenchmarkSpec(unittest.TestCase):
    def test_keys(self):
        self.assertEqual(set(spec()), {"command", "paths", "run_seconds",
                                       "workloads", "end_to_end",
                                       "per_layer"})

    def test_names_unique_and_well_formed(self):
        s = spec()
        names = [w["name"] for w in s["workloads"]]
        names += [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)),
                         "metric and workload names must be unique")

    def test_metrics_well_formed(self):
        s = spec()
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in s["end_to_end"]))

    def test_workloads(self):
        s = spec()
        self.assertEqual([w["name"] for w in s["workloads"]],
                         ["characterize", "campaign", "optimize"])
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])


class SmokeRuns(unittest.TestCase):
    def check_result(self, result, listed):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        units = {m["name"]: m["unit"] for m in listed}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], units[name])
            self.assertIsInstance(metric["value"], (int, float))
            self.assertTrue(math.isfinite(metric["value"]))

    def check_spans(self, workload):
        path = BINARY.parent / "test-out" / f"spans-{workload}-7.json"
        events = json.loads(path.read_text())["traceEvents"]
        self.assertGreater(len(events), 0)
        ids = {e["args"]["id"] for e in events}
        for e in events:
            self.assertEqual(e["ph"], "X")
            self.assertGreaterEqual(e["dur"], 0)
            self.assertEqual(e["args"]["workload"], workload)
            parent = e["args"]["parent"]
            self.assertTrue(parent == 0 or parent in ids)

    def test_every_workload(self):
        s = spec()
        for workload in [w["name"] for w in s["workloads"]]:
            for trace, listed in ((0, s["end_to_end"]),
                                  (1, s["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, stdout, result = run(workload, trace)
                    self.assertEqual(code, 0, stdout[-2000:])
                    self.check_result(result, listed)
                    if trace:
                        self.check_spans(workload)

    def test_sim_metrics_repeat_across_job_counts(self):
        _, _, serial = run("characterize", 0, jobs=1)
        _, _, parallel = run("characterize", 0, jobs=4)
        for name, metric in serial["metrics"].items():
            if name.startswith("sim."):
                self.assertEqual(metric, parallel["metrics"][name], name)

    def test_unknown_workload_fails_without_result(self):
        done = subprocess.run(
            [str(BINARY), "--workload", "nope", "--seed", "1", "--seconds",
             "1", "--trace", "0", "--out", str(BINARY.parent / "test-out")],
            capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", default=str(BINARY))
    args, rest = parser.parse_known_args()
    BINARY = Path(args.binary).resolve()
    unittest.main(argv=[sys.argv[0], *rest])
