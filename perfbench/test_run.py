#!/usr/bin/env python3
"""Tests of the benchmark itself: python3 perfbench/test_run.py

Checks BENCHMARK.json against the format the benchmark is run under, and
runs short workloads to show that the result line has the promised shape,
that a wrong expected digest fails the run, and that a tree without the
protocol sources fails without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1])


class BenchmarkJsonTest(unittest.TestCase):
    def test_keys_and_limits(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        names = []
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in s["end_to_end"]))
        # 4 + 22 runs per workload and two builds must fit in 3420 s. A
        # run's set-up, warm-up and checks add at most ~10 s on a 4-core
        # host; a build takes ~60 s.
        runs = 4 + 22 * len(s["workloads"])
        self.assertLess(runs * (s["run_seconds"] + 12) + 2 * 90, 3420)


class RunTest(unittest.TestCase):
    def test_end_to_end_line(self):
        proc = run("--workload", "attack_seq", "--seed", "3",
                   "--seconds", "1", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        r = result_line(proc)
        self.assertEqual(set(r), {"correct", "attempted", "failed",
                                  "metrics"})
        self.assertTrue(r["correct"])
        self.assertGreaterEqual(r["attempted"], 1)
        self.assertEqual(r["failed"], 0)
        self.assertEqual(list(r["metrics"]),
                         [m["name"] for m in spec()["end_to_end"]])
        for m in r["metrics"].values():
            self.assertGreater(m["value"], 0)

    def test_traced_line_lists_every_per_layer_metric(self):
        proc = run("--workload", "shard_socket", "--seed", "3",
                   "--seconds", "1", "--trace", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        r = result_line(proc)
        self.assertTrue(r["correct"])
        self.assertEqual(list(r["metrics"]),
                         [m["name"] for m in spec()["per_layer"]])
        for name in ("net.hub_round_ms", "sim.worker_step_ms",
                     "sim.rounds_per_step", "net.codec_ns_per_frame"):
            self.assertGreater(r["metrics"][name]["value"], 0, name)

    def test_traced_batch_run_checks_its_shards1_twin(self):
        proc = run("--workload", "churn_batch", "--seed", "3",
                   "--seconds", "1", "--trace", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        r = result_line(proc)
        self.assertTrue(r["correct"])
        for name in ("core.plan_ms", "core.resolve_ms", "core.stage1_ms",
                     "core.waves_per_step", "core.phase_speedup.plan"):
            self.assertGreater(r["metrics"][name]["value"], 0, name)
        self.assertIn("blocking path", proc.stderr)

    def test_wrong_expected_digest_fails(self):
        proc = run("--workload", "shard_socket", "--seed", "3",
                   "--seconds", "1", "--trace", "0",
                   "--expect-digest", "123456789abcdef")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result_line(proc)["correct"])
        self.assertIn("digest", proc.stderr)

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "test-bare-tree")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("--workload", "churn_batch", "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
