#!/usr/bin/env python3
"""Hold fresh benchmark runs to the committed perf baseline.

Compares the headline throughput numbers of a fresh bench run (a
directory of BENCH_*.json files, typically produced in CI) against the
baseline artifacts committed at the repository root, and fails on a
regression beyond the tolerance band.  Improvements always pass; commit
the refreshed artifacts (scripts/bench_all.sh) to ratchet the baseline.

Usage:
    scripts/perf_gate.py --baseline . --fresh fresh-bench [--tolerance 0.20]
"""

import argparse
import json
import os
import re
import sys

# (artifact file, metric key, human name) -- the gated trajectory.
GATED = [
    ("BENCH_campaign.json", "jobs1_cells_per_sec", "campaign cells/sec"),
    ("BENCH_campaign.json", "jobs2_cells_per_sec",
     "campaign cells/sec (2 workers)"),
    ("BENCH_campaign.json", "jobs4_cells_per_sec",
     "campaign cells/sec (4 workers)"),
    ("BENCH_kernel.json", "ticks_per_sec", "kernel ticks/sec"),
    ("BENCH_fleet.json", "workers1_cells_per_sec",
     "fleet cells/sec (1 worker)"),
    ("BENCH_fleet.json", "workers2_cells_per_sec",
     "fleet cells/sec (2 workers)"),
    ("BENCH_fleet.json", "workers4_cells_per_sec",
     "fleet cells/sec (4 workers)"),
    ("BENCH_explore.json", "dpor_states_per_sec",
     "explore DPOR states/sec"),
    ("BENCH_explore.json", "dpor_reduction_ratio",
     "explore DPOR reduction ratio (BFS/DPOR states)"),
    ("BENCH_explore.json", "jobs4_speedup",
     "explore parallel DPOR speedup (4 workers)"),
]


def load_metric(directory, fname, key):
    path = os.path.join(directory, fname)
    if not os.path.exists(path):
        return None, path
    with open(path) as f:
        data = json.load(f)
    if key not in data:
        raise SystemExit(f"error: {path} has no '{key}' member")
    return float(data[key]), path


def load_artifact(directory, fname):
    """The whole artifact object, or None when absent."""
    path = os.path.join(directory, fname)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def load_hw_threads(directory, fname):
    """The recorded hardware concurrency, or None (older artifacts)."""
    data = load_artifact(directory, fname)
    if data is None:
        return None
    value = data.get("hw_threads")
    return int(value) if value is not None else None


def oversubscribed(data, key):
    """Does the artifact mark this jobsN_*/workersN_* row as
    oversubscribed?

    Prefers the explicit jobsN_oversubscribed (workersN_ for the fleet
    bench) flag the bench stamps; derives it from hw_threads for
    artifacts that predate the flag.  An oversubscribed row ran more
    workers than hardware threads, so its speedup and tail-latency
    numbers measure time-slicing, not the scheduler -- asserting on
    them gates on noise.
    """
    if data is None:
        return False
    m = re.match(r"(jobs|workers)(\d+)_", key)
    if not m:
        return False
    flag = data.get(f"{m.group(1)}{m.group(2)}_oversubscribed")
    if flag is not None:
        return bool(flag)
    hw = data.get("hw_threads")
    return hw is not None and int(m.group(2)) > int(hw)


def check_topology(baseline_dir, fresh_dir):
    """Warn visibly when baseline and fresh ran on different topology.

    A 1-thread baseline box against an 8-thread CI runner (or vice
    versa) makes every throughput and scaling comparison suspect; the
    gate still runs, but the note explains anomalous ratios.
    """
    for fname in sorted({fname for fname, _, _ in GATED}):
        base_hw = load_hw_threads(baseline_dir, fname)
        fresh_hw = load_hw_threads(fresh_dir, fname)
        if base_hw is None or fresh_hw is None or base_hw == fresh_hw:
            continue
        print(f"  [topology] NOTE: {fname} baseline ran on "
              f"{base_hw} hw threads, fresh run on {fresh_hw} -- "
              f"throughput ratios compare different machines; treat "
              f"regressions/improvements here with suspicion")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", default=".",
                    help="directory with the committed BENCH_*.json")
    ap.add_argument("--fresh", required=True,
                    help="directory with the freshly produced BENCH_*.json")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed fractional slowdown (default 0.20)")
    args = ap.parse_args()

    check_topology(args.baseline, args.fresh)

    failures = []
    for fname, key, name in GATED:
        base, base_path = load_metric(args.baseline, fname, key)
        fresh, fresh_path = load_metric(args.fresh, fname, key)
        if fresh is None:
            raise SystemExit(f"error: fresh run produced no {fresh_path}")
        if base is None:
            print(f"  [skip] {name}: no committed baseline "
                  f"({base_path}); run scripts/bench_all.sh and commit")
            continue
        base_over = oversubscribed(load_artifact(args.baseline, fname),
                                   key)
        fresh_over = oversubscribed(load_artifact(args.fresh, fname),
                                    key)
        if base_over or fresh_over:
            where = ("baseline and fresh" if base_over and fresh_over
                     else "baseline" if base_over else "fresh")
            print(f"  [oversub] SKIP {name}: the {where} row ran more "
                  f"workers than hardware threads; its numbers measure "
                  f"time-slicing, not scaling, so no speedup/p99 "
                  f"assertion applies")
            continue
        floor = base * (1.0 - args.tolerance)
        ratio = fresh / base if base > 0 else float("inf")
        verdict = "ok" if fresh >= floor else "REGRESSION"
        print(f"  [{verdict}] {name}: fresh {fresh:,.1f} vs baseline "
              f"{base:,.1f} ({ratio:.2f}x, floor {floor:,.1f})")
        if fresh < floor:
            failures.append(name)

    if failures:
        print(f"perf gate FAILED: {', '.join(failures)} regressed more "
              f"than {args.tolerance:.0%} below the committed baseline")
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
