#!/usr/bin/env python3
"""The benchmark's own tests, on the smoke size of every workload.

    python3 perfbench/test_perfbench.py        (from the checkout root)

Builds the runner through run.py like any run, then checks the result
contract, the metric lists against BENCHMARK.json, determinism across two
processes with the same seed, argument errors, and that a directory
without the vC2M sources fails cleanly.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Counters that must repeat exactly for a seed (the workload's "exact" set).
EXACT = ["analysis.budget_evals", "core.kmeans.runs", "core.kmeans.iterations",
         "core.admission_tests", "service.commits", "sim.jobs_completed",
         "sim.vcpu_switches", "sim.trace_events", "util.arena_bytes"]


def bench(workload, seed=1, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def details_of(workload, seed, trace):
    with open(run.details_path(workload, seed, trace, smoke=True)) as f:
        return json.load(f)


class Contract(unittest.TestCase):
    def test_spec_matches_runner_workloads(self):
        self.assertEqual(sorted(WORKLOADS), sorted(run.DEFAULT_SEEDS))
        self.assertEqual(SPEC["command"], ["python3", "perfbench/run.py"])

    def test_every_workload_untraced_and_traced(self):
        for workload in WORKLOADS:
            for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(workload, trace=trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    r = result_of(proc)
                    self.assertEqual(set(r), {"correct", "attempted", "failed",
                                              "metrics"})
                    self.assertTrue(r["correct"], proc.stderr)
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(r["failed"], 0)
                    self.assertEqual(list(r["metrics"]), names)
                    for name, m in r["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)
                        if trace == 0:
                            self.assertGreater(m["value"], 0, name)
                    d = details_of(workload, 1, trace)
                    self.assertEqual(d["error_rate"], 0)
                    for key in ("cpu_model", "nproc"):
                        self.assertIn(key, d["host"])
                    for key in ("compiler", "build_type", "git_rev",
                                "source_digest"):
                        self.assertIn(key, d["build"])
                    self.assertTrue(d["params"])

    def test_same_seed_same_digest_and_exact_counters(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                seen = []
                for _ in range(2):
                    proc = bench(workload, seed=5, trace=1)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    r = result_of(proc)
                    d = details_of(workload, 5, 1)
                    exact = {k: r["metrics"][k]["value"] for k in EXACT}
                    seen.append((d["digest"], d["exact"], exact))
                self.assertEqual(seen[0], seen[1])

    def test_serve_replay_matches_service(self):
        for workload in ("serve-saturated", "serve-churn"):
            with self.subTest(workload=workload):
                self.assertEqual(bench(workload, trace=1).returncode, 0)
                d = details_of(workload, 1, 1)
                self.assertEqual(d["params"]["replay_outcomes_match_report"], "yes")


class Errors(unittest.TestCase):
    def test_bad_arguments_exit_nonzero_without_result(self):
        for argv in (["--workload", "nope"], ["--workload", "sweep-fig4", "--trace", "2"],
                     ["--workload", "sweep-fig4", "--seconds", "0"], []):
            proc = subprocess.run([sys.executable, RUN] + argv, cwd=ROOT,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True)
            self.assertNotEqual(proc.returncode, 0, argv)
            self.assertEqual(proc.stdout.strip(), "", argv)

    def test_directory_without_sources_fails_cleanly(self):
        # Inside the checkout's build area, which .gitignore covers.
        os.makedirs(run.BUILD_BASE, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.BUILD_BASE) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep-fig4",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
