#!/usr/bin/env python3
"""Exact-repeat check of the traced counts, and the tracing overhead.

Usage, from the root of a checkout:

    python3 perfbench/check_trace.py

For each workload of BENCHMARK.json, runs the benchmark once untraced and
twice traced with seed 7 and BENCHMARK.json's run_seconds, so all three solve
the same instances.  The two traced runs must report identical counts (n x p products,
outer and inner iterations and the other counts below), which lets these
counts back later claims.  Every run must also report ``correct``, which
includes the check that each replaced attribute was put back.

The tracing overhead is reported twice.  The first figure is the traced minus
the untraced ``solve_s_p50`` of those runs; it also holds the machine's drift
between two runs a minute apart.  The second figure comes from 8
instances of the workload's kind, solved in this process once untraced and
once traced, alternating which goes first; it is the median of the paired
differences.  Exits 1 if a check fails; the results are kept in
``perfbench/out/check_trace.json``.
"""

from __future__ import annotations

import json
import statistics
import sys

import run  # pins BLAS threads before numpy is imported
from spread import BENCH, HERE, run_once

SEED = 7
PAIRS = 8  # paired in-process solves for the overhead

EXACT_COUNTS = (
    "core.matvecs_per_solve",
    "adm.outer_iters_per_solve",
    "subsolver.inner_iters_per_solve",
    "core.apply_gram.calls_per_solve",
    "subsolver.trials_per_solve",
    "trace.spans_per_solve",
)


def paired_overhead(name: str, seed: int, pairs: int) -> list[float]:
    """Relative overhead (traced / untraced - 1) of the same solve, per pair."""
    sys.path.insert(0, str(run.SRC))
    from probe import Probe
    from workloads import PAPER_TOL, WORKLOADS, instance_seeds

    w = WORKLOADS[name]
    shares = []
    for k, instance_seed in enumerate(instance_seeds(seed, pairs)):
        probes = [Probe(name, PAPER_TOL, traced=False), Probe(name, PAPER_TOL, traced=True)]
        for probe in probes if k % 2 == 0 else probes[::-1]:
            inst, _ = probe.make_instance(w.spec(instance_seed))
            probe.install()
            try:
                probe.solve(inst, w.config(inst.delta))
            finally:
                probe.restore()
        untraced, traced = (p.records[0]["solve_s"] for p in probes)
        shares.append(traced / untraced - 1.0)
    return shares


def main() -> int:
    ok = True
    results = {}
    for name in (w["name"] for w in BENCH["workloads"]):
        untraced = run_once(name, SEED, 0)
        traced = [run_once(name, SEED, 1) for _ in range(2)]
        counts = {key: [t["metrics"][key]["value"] for t in traced] for key in EXACT_COUNTS}
        repeat = all(a == b for a, b in counts.values())
        correct = all(r["correct"] for r in (untraced, *traced))
        base = untraced["metrics"]["solve_s_p50"]["value"]
        run_overhead = [t["metrics"]["trace.solve_s_p50"]["value"] - base for t in traced]
        pair_shares = paired_overhead(name, SEED, PAIRS)
        results[name] = {
            "counts": counts,
            "repeat_exact": repeat,
            "all_correct": correct,
            "solve_s_p50": base,
            "run_overhead_s": run_overhead,
            "paired_overhead_shares": pair_shares,
            "paired_overhead_median": statistics.median(pair_shares),
        }
        ok = ok and repeat and correct
        print(f"{name}: counts repeat exactly: {repeat}; all runs correct: {correct}")
        for key, (a, b) in counts.items():
            print(f"  {key:36s} {a:12.6g} {b:12.6g}")
        print(f"  untraced solve_s_p50 {base:.4f} s; traced minus untraced: "
              + ", ".join(f"{o:+.4f} s ({o / base:+.2%})" for o in run_overhead))
        print(f"  paired in-process overhead over {PAIRS} solves: median "
              f"{statistics.median(pair_shares):+.2%} (range {min(pair_shares):+.2%} "
              f"to {max(pair_shares):+.2%})", flush=True)

    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "check_trace.json").write_text(json.dumps(results, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
