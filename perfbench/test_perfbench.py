"""Tests of the benchmark's own machinery, on the tiny input sizes.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each test runs perfbench/run.py the way the benchmark is driven, with
--tiny so a workload takes about a second (the first test also builds
the binary).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign_run", "campaign_verify", "explore_dpor", "fleet_run")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra):
    """(stamp line, result) of one tiny run."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "0.2", "--trace",
         str(trace), "--tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{workload}: exit {out.returncode}\n"
                             f"{out.stderr[-2000:]}")
    lines = out.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class TinyRuns(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    stamp, res = run(w, trace)
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {n: m["unit"] for n, m in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for n, m in res["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), n)
                    self.assertEqual(stamp["stamp"]["build_type"],
                                     "Release")
                    self.assertEqual(stamp["stamp"]["seed"], 7)
                    self.assertIn("vol_ctx_switches", stamp["rusage"])

    def test_corrupted_expected_digest_fails_the_run(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, res = run(w, 0, "--expect-digest", "0123456789abcdef")
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)

    def test_traced_and_untraced_agree_on_simulated_counts(self):
        stamp, _ = run("campaign_run", 0)
        _, traced = run("campaign_run", 1)
        self.assertEqual(stamp["info"]["events_per_cell"],
                         traced["metrics"]["event.events_per_cell"]["value"])
        stamp, _ = run("explore_dpor", 0)
        _, traced = run("explore_dpor", 1)
        self.assertEqual(stamp["info"]["states"],
                         traced["metrics"]["explore.states"]["value"])


if __name__ == "__main__":
    unittest.main()
