#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the driver and the C++ self-tests (span self-time arithmetic,
metric-name grammar, scratchpad starvation), checks BENCHMARK.json
against the metric-name grammar, and runs every workload once untraced
and once traced through the benchmark command, checking that each
metric BENCHMARK.json names is printed with its unit and that the
result digest is the same in both runs.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark command's build step)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build_dir()
        if not run.build(cls.out):
            raise RuntimeError("benchmark build failed")
        built = subprocess.run(["cmake", "--build", cls.out, "--target",
                                "perfbench_selftest"], stdout=sys.stderr)
        if built.returncode:
            raise RuntimeError("self-test build failed")
        cls.spec = load_spec()

    def test_selftest_binary(self):
        p = subprocess.run([os.path.join(self.out, "perfbench_selftest")],
                           capture_output=True, text=True)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)

    def test_names_follow_the_grammar(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for m in self.spec[group]:
                names.append(m["name"])
                self.assertRegex(m["unit"], UNIT)
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "names repeat")
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    @classmethod
    def runs(cls):
        """stdout of every workload, untraced and traced, on seed 1."""
        if not hasattr(cls, "_runs"):
            cls._runs = {}
            for workload in run.WORKLOADS:
                for trace in (0, 1):
                    p = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"),
                         "--workload", workload, "--seed", "1",
                         "--seconds", "1", "--trace", str(trace)],
                        cwd=ROOT, capture_output=True, text=True,
                        timeout=300)
                    cls._runs[workload, trace] = p
        return cls._runs

    def test_every_metric_printed_with_its_unit(self):
        groups = {0: self.spec["end_to_end"], 1: self.spec["per_layer"]}
        for (workload, trace), p in self.runs().items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                lines = p.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"], p.stdout)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                printed = {}
                for line in lines[:-1]:
                    parts = line.split()
                    if len(parts) == 4 and parts[0] == "metric":
                        printed[parts[1]] = parts[3]
                wanted = groups[trace]
                got = result["metrics"]
                self.assertEqual(set(got), {m["name"] for m in wanted})
                for m in wanted:
                    self.assertEqual(got[m["name"]]["unit"], m["unit"])
                    self.assertEqual(printed.get(m["name"]), m["unit"])

    def test_digest_repeats_across_runs(self):
        # Same seed, separate processes, tracing off and on: the
        # simulated and trained results must not move.
        for workload in run.WORKLOADS:
            digests = set()
            for trace in (0, 1):
                out = self.runs()[workload, trace].stdout.splitlines()
                digests.update(l for l in out if l.startswith("digest "))
            self.assertEqual(len(digests), 1, (workload, digests))


if __name__ == "__main__":
    unittest.main()
