#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, as its acceptance rule measures it.

    python3 perfbench/spread.py --workload NAME [--runs N]

Runs the end-to-end workload once per seed 1..N (default 10) and prints,
per metric, the median and the distance between the first and third
quartile as a share of the median -- statistics.quantiles(values, n=4)
-- next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values, bad = {}, 0
    for seed in range(1, args.runs + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        res = json.loads(out.stdout.splitlines()[-1])
        bad += not res["correct"] or res["failed"] > 0
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
            flush=True)
    print(f"{args.workload}: {args.runs} runs, {bad} incorrect or failing")
    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else 0.0
        flag = "" if spread < bounds[name] / 3 else "  <-- over bound/3"
        print(f"  {name:40s} median {med:<14.6g} spread {spread:6.3f}"
              f"  bound {bounds[name]}{flag}")


if __name__ == "__main__":
    main()
