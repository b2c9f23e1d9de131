#!/usr/bin/env python3
"""Run-to-run spread of the benchmark over several seeds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload unit-i1 --seeds 10 [--first-seed 1]

Runs ``perfbench/run.py`` once per seed, untraced, for BENCHMARK.json's
run_seconds, then prints, for every end-to-end metric, the median of the runs and the spread: the
distance between the first and third quartiles (``statistics.quantiles`` with
n=4) as a share of the median.  A spread is marked ``ok`` when it is below
a third of the metric's bound.  The per-run lines are kept in
``perfbench/out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    """One run of the benchmark for BENCHMARK.json's run_seconds; its result line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10, help="number of runs, one seed each")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        line = run_once(args.workload, seed, 0)
        runs.append({"seed": seed, **line})
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']}", flush=True)

    all_correct = all(r["correct"] and r["failed"] == 0 for r in runs)
    print(f"\n{args.workload}: {len(runs)} runs, all correct: {all_correct}")
    print(f"{'metric':36s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    table = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        if len(values) < 2 or statistics.median(values) == 0:
            continue
        median, share = spread(values)
        bound = bounds[name]
        mark = "ok" if share < bound / 3 else "WIDE"
        table[name] = {"median": median, "spread": share, "bound": bound, "values": values}
        print(f"{name:36s} {median:12.6g} {share:8.4f} {bound:>6} {mark}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}.json").write_text(
        json.dumps({"workload": args.workload, "seconds": BENCH["run_seconds"], "runs": runs,
                    "metrics": table}, indent=2) + "\n"
    )
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
