#!/usr/bin/env python3
"""Tests of the benchmark itself, on test-sized inputs.

    python3 perfbench/test_perfbench.py

Runs every workload briefly, checks that each metric BENCHMARK.json
names is emitted with its unit, that a corrupted output is counted as
failed instead of passing, and that the runner refuses to run without
the program's sources.  Builds the benchmark first if needed.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace=0, seed=7, extra=()):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class MetricsTest(unittest.TestCase):
    def check_emitted(self, result, declared):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_every_workload_emits_every_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                e2e = run(w["name"], trace=0)
                self.check_emitted(e2e, SPEC["end_to_end"])
                for name, m in e2e["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                self.check_emitted(run(w["name"], trace=1),
                                   SPEC["per_layer"])

    def test_layers_cover_the_end_to_end_time(self):
        for name in ("record", "postmortem", "postmortem-mem"):
            with self.subTest(workload=name):
                m = run(name, trace=1)["metrics"]
                self.assertGreaterEqual(m["layer_coverage_frac"]["value"], 0.9)

    def test_seed_fixes_the_inputs(self):
        size = lambda seed: run("postmortem", seed=seed)["metrics"][
            "trace_bytes_per_event"]["value"]
        self.assertEqual(size(3), size(3))
        self.assertNotEqual(size(3), size(4))


class CorruptionTest(unittest.TestCase):
    def test_flipped_digest_byte_fails(self):
        for name in ("postmortem", "postmortem-mem"):
            with self.subTest(workload=name):
                r = run(name, extra=("--corrupt", "digest"))
                self.assertFalse(r["correct"])
                self.assertGreater(r["failed"], 0)

    def test_flipped_response_byte_fails(self):
        r = run("serve", extra=("--corrupt", "response"))
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)


class RunnerTest(unittest.TestCase):
    def test_refuses_without_program_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "perfbench-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "record",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=170,
                env={**os.environ, "CARGO_TARGET_DIR": ".bench_build"})
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
