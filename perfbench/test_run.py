#!/usr/bin/env python3
"""The benchmark's own tests: a tiny run of every workload run.py knows
(tpch_power included, though BENCHMARK.json does not list it), untraced and
traced, must print every metric BENCHMARK.json lists, by name and with its
unit, and its JSON result must hold exactly those metrics.

    python3 perfbench/test_run.py        (from the root of the source tree)
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class TinyRuns(unittest.TestCase):
    spec = load_spec()

    def run_bench(self, workload, trace):
        cmd = self.spec["command"] + ["--workload", workload, "--seed", "7",
                                      "--seconds", "1", "--trace", str(trace)]
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=600)
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        return r.stdout.strip().splitlines()

    def check(self, workload, trace):
        listed = self.spec["per_layer" if trace else "end_to_end"]
        lines = self.run_bench(workload, trace)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in listed])
        for m in listed:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            printed = [l for l in lines[:-1] if l.startswith(m["name"] + " = ")]
            self.assertEqual(len(printed), 1, m["name"])
            self.assertTrue(printed[0].endswith(" " + m["unit"]), printed[0])


def add_cases():
    sys.path.insert(0, HERE)
    import run

    listed = {w["name"] for w in TinyRuns.spec["workloads"]}
    assert listed <= set(run.WORKLOADS), listed
    for w in run.WORKLOADS:
        for trace in (0, 1):
            name = f"test_{w}_trace{trace}"
            setattr(TinyRuns, name, lambda self, w=w, t=trace: self.check(w, t))


add_cases()

if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1] + sys.argv[1:])
