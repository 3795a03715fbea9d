#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_bench.py

Runs every workload briefly (one repetition each) and checks that:
- the printed metric names and units equal BENCHMARK.json's, untraced and traced;
- the default seed and a held-out seed both pass their output checks;
- two runs of one seed give identical simulated outputs and counts;
- traced and untraced runs give identical simulated outputs;
- the command fails, without printing a result, when the sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def run(workload, seed, trace, cwd=ROOT):
    out = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    witness = next((l for l in lines if l.startswith("witness ")), None)
    return out.returncode, result, witness, out


class Workload:
    """One workload's runs, made once and shared by the checks."""

    cache = {}

    @classmethod
    def get(cls, name):
        if name not in cls.cache:
            cls.cache[name] = {
                "a": run(name, DEFAULT_SEED, 0),
                "b": run(name, DEFAULT_SEED, 0),
                "traced": run(name, DEFAULT_SEED, 1),
                "held_out": run(name, HELD_OUT_SEED, 0),
            }
        return cls.cache[name]


def spec_metrics(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


class BenchTest(unittest.TestCase):
    def each(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                yield w["name"], Workload.get(w["name"])

    def test_all_runs_pass_their_checks(self):
        for name, runs in self.each():
            for key, (code, result, _, out) in runs.items():
                self.assertEqual(code, 0, f"{key}: {out.stdout[-2000:]}{out.stderr[-2000:]}")
                self.assertIsNotNone(result, key)
                self.assertTrue(result["correct"], key)
                self.assertEqual(result["failed"], 0, key)
                self.assertGreaterEqual(result["attempted"], 1, key)

    def test_metric_names_match_benchmark_json(self):
        for name, runs in self.each():
            for key, kind in (("a", "end_to_end"), ("traced", "per_layer")):
                metrics = runs[key][1]["metrics"]
                self.assertEqual({k: v["unit"] for k, v in metrics.items()},
                                 spec_metrics(kind), key)
            for m, v in runs["a"][1]["metrics"].items():
                self.assertNotEqual(v["value"], 0, m)

    def test_same_seed_repeats_simulated_outputs(self):
        for name, runs in self.each():
            self.assertIsNotNone(runs["a"][2])
            self.assertEqual(runs["a"][2], runs["b"][2])
            self.assertEqual(runs["a"][1]["metrics"]["sim_ms"],
                             runs["b"][1]["metrics"]["sim_ms"])

    def test_tracing_does_not_change_simulated_outputs(self):
        for name, runs in self.each():
            self.assertEqual(runs["a"][2], runs["traced"][2])

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            for p in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(d, p),
                                ignore=shutil.ignore_patterns("_trace", "__pycache__"))
            code, result, _, _ = run(SPEC["workloads"][0]["name"], DEFAULT_SEED, 0, cwd=d)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main(verbosity=2)
