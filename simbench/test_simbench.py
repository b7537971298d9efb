#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 simbench/test_simbench.py

Builds the simbench binary (as run.py does), runs every workload for one
pass per mode, and checks the properties later comparisons rely on: metric
names are well formed, simulated results and counters repeat exactly for a seed,
another seed changes the inputs, and tracing changes no simulated result.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (simbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def simbench(binary, seed, trace):
    p = subprocess.run([binary, "--workload", "all", "--seed", str(seed),
                        "--seconds", "0", "--trace", str(trace)],
                       capture_output=True, text=True, check=False)
    lines = p.stdout.strip().splitlines()
    details = {}
    for line in lines:
        if line.startswith("detail "):
            d = json.loads(line[len("detail "):])
            details[d["workload"]] = d
    return p.returncode, json.loads(lines[-1]), details


class SimbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        binary = run.build()
        cls.a = simbench(binary, 1, 0)
        cls.b = simbench(binary, 1, 0)
        cls.other_seed = simbench(binary, 2, 0)
        cls.traced = simbench(binary, 1, 1)
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_runs_are_correct(self):
        for code, result, details in (self.a, self.b, self.other_seed,
                                      self.traced):
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(len(details), 4)

    def test_metric_names(self):
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in self.spec[key]]
        for _, result, details in (self.a, self.traced):
            names += list(result["metrics"])
            for d in details.values():
                for block in ("sim", "counters", "end_to_end", "per_layer"):
                    names += list(d[block])
        for name in names:
            self.assertRegex(name, NAME)

    def test_result_line_has_every_benchmark_metric(self):
        for mode, (_, result, _) in (("end_to_end", self.a),
                                     ("per_layer", self.traced)):
            want = {f"{w['name']}.{m['name']}" for w in self.spec["workloads"]
                    for m in self.spec[mode]}
            self.assertEqual(set(result["metrics"]), want)

    def test_same_seed_repeats_simulated_results(self):
        for w, d in self.a[2].items():
            other = self.b[2][w]
            self.assertEqual(d["inputs_hash"], other["inputs_hash"], w)
            self.assertEqual(d["sim"], other["sim"], w)
            self.assertEqual(d["counters"], other["counters"], w)

    def test_other_seed_changes_inputs(self):
        for w, d in self.a[2].items():
            self.assertNotEqual(d["inputs_hash"],
                                self.other_seed[2][w]["inputs_hash"], w)

    def test_tracing_changes_no_simulated_result(self):
        for w, d in self.a[2].items():
            traced = self.traced[2][w]
            self.assertEqual(d["sim"], traced["sim"], w)
            for name, value in d["counters"].items():
                self.assertEqual(traced["counters"][name], value, (w, name))


if __name__ == "__main__":
    unittest.main()
