#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) as a Release build under
.bench_build/, runs the measuring binary from the repository root, and
prints its stamp lines followed, as the last line, by one JSON object
with exactly the keys correct, attempted, failed and metrics.  The
metrics are the end_to_end ones of BENCHMARK.json with --trace 0 and the
per_layer ones with --trace 1.  See perfbench/README.md.

An end-to-end run splits its seconds over several processes and reports
each metric's median over them: part of the run-to-run spread is
per-process (heap and thread placement), and only fresh processes sample
it.  Every process must reproduce the same output digest.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "wobench")
RUN_TIMEOUT_S = 170
# Processes per end-to-end run (see the module docstring).
PROCESSES = {"campaign_run": 6, "fleet_run": 4, "campaign_verify": 4,
             "explore_dpor": 2}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under src/: nothing to build")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "wobench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def git(*args):
    out = subprocess.run(["git", "-C", ROOT, *args],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def commit_id():
    """The git commit, or a digest of the sources outside a git tree.

    A git tree whose src/ or perfbench/ differs from the commit is
    stamped `<commit>+tree-<digest>`: the commit alone would name code
    that is not the code measured.
    """
    if os.path.exists(os.path.join(ROOT, ".git")):
        head = git("rev-parse", "HEAD")
        if head is not None:
            if not git("status", "--porcelain", "--", "src", "perfbench"):
                return head
            return head + "+" + tree_digest()
    return tree_digest()


def tree_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(
                os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def run_once(args, seconds, commit, timeout):
    """(stamp line, result) of one wobench process."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--commit", commit]
    if args.tiny:
        cmd.append("--tiny")
    if args.expect_digest:
        cmd += ["--expect-digest", args.expect_digest]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {timeout:.0f} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail(f"wobench exited with {proc.returncode}")
    return lines[-2], json.loads(lines[-1])


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs (machinery tests)")
    ap.add_argument("--expect-digest",
                    help="output digest the run must reproduce")
    args = ap.parse_args()

    build()
    commit = commit_id()
    n = 1 if args.trace or args.tiny else PROCESSES[args.workload]
    runs = [run_once(args, args.seconds / n, commit, RUN_TIMEOUT_S / n)
            for _ in range(n)]

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = [res["metrics"].get(m["name"]) for _, res in runs]
        if any(g is None or g["unit"] != m["unit"] for g in got):
            fail(f"{args.workload} did not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = {
            "value": statistics.median(g["value"] for g in got),
            "unit": m["unit"]}
    correct = all(res["correct"] for _, res in runs)
    failed = sum(res["failed"] for _, res in runs)
    digests = {json.loads(stamp)["info"].get("digest") for stamp, _ in runs}
    if len(digests) > 1:
        print(f"perfbench: processes disagree on the digest: {digests}",
              file=sys.stderr)
        correct = False
        failed += 1
    for stamp, _ in runs:
        print(stamp)
    print(json.dumps({"correct": correct,
                      "attempted": sum(res["attempted"] for _, res in runs),
                      "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
