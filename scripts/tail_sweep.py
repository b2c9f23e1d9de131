#!/usr/bin/env python3
"""Measure the inner-tolerance rule of this tree against a parent tree's.

    python3 scripts/tail_sweep.py --parent DIR [--sections sweep,acceptance,perfbench]
                                  [--out BENCH_tail.json]

``DIR`` is a checkout of the parent commit.  Its ``src/dantzig_adm`` is loaded
into this process under another package name, so both trees solve the same
instance objects in one process.  Each section writes its own key of the JSON
file (the others are kept):

- ``sweep``: unit columns at (720, 2560, 80), sigma 0.05 and 0.01, and
  orthogonal rows at sigma 0.05, on the held-out seeds 100-129 (``--seeds``,
  ``--first-seed``).  Each instance is solved ``--reps`` times by each tree,
  the trees interleaved and in reverse order on odd seeds, and each tree's
  time is its fastest.  A row records both trees' times, outer and inner
  iterations, rho2 and the certificate's largest ratio over tol.
- ``acceptance``: the 30 acceptance rows (the same three rows at seeds 0-9),
  one solve per tree, for the acceptance criteria's iteration means.
- ``perfbench``: ``perfbench/run.py --trace 0`` of both workloads on the
  parent tree and on this one, in alternating order over ``--bench-seeds``,
  for ``--bench-seconds`` each (see scripts/start_sweep.py).

BLAS runs on one thread, as perfbench pins it.  The file also records the
machine, the BLAS and the thread count.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

from start_sweep import environment, load_parent, perfbench  # noqa: E402

from dantzig_adm import adm  # noqa: E402
from dantzig_adm.datagen import GenSpec, make_instance, mu_rule, tol_rule  # noqa: E402
from dantzig_adm.evaluation import evaluate_solution, feasibility_report  # noqa: E402

SIZE = (720, 2560, 80)
ROWS = [("unit_columns", 0.05), ("unit_columns", 0.01), ("orthogonal_rows", 0.05)]


def _instance(design: str, sigma: float, seed: int):
    n, p, s = SIZE
    spec = GenSpec(n=n, p=p, s=s, sigma_noise=sigma, design_kind=design, seed=seed)
    inst, truth = make_instance(spec)
    return inst, truth, dict(mu=mu_rule(design, p, inst.delta), tol=tol_rule(design))


def _solve(module, inst, settings) -> tuple:
    """One default solve by ``module`` (an adm module): its time and answer."""
    t0 = time.perf_counter()
    beta, lam, report = module.solve(inst, module.AdmConfig(**settings))
    return time.perf_counter() - t0, beta, lam, report


def _record(inst, truth, sigma, tol, seconds, beta, lam, report) -> dict:
    certificate = feasibility_report(inst, beta, lam)
    worst = max(certificate.primal_ratio, certificate.dual_ratio, certificate.gap_ratio)
    return {
        "solve_s": round(seconds, 5),
        "status": report.status,
        "outer": report.outer_iterations,
        "inner": report.inner_iteration_total,
        "rho2": evaluate_solution(inst, beta, truth.beta_true, sigma).rho2,
        "certificate_ratio": worst / tol,
        "certified": report.status == "converged" and worst <= tol,
    }


def _row(trees: dict, design: str, sigma: float, seed: int, reps: int) -> dict:
    """Both trees on one instance, interleaved, each timed by its fastest of ``reps``."""
    inst, truth, settings = _instance(design, sigma, seed)
    order = list(trees) if seed % 2 == 0 else list(trees)[::-1]
    best = {}
    for _ in range(reps):
        for name in order:
            seconds, *answer = _solve(trees[name], inst, settings)
            if name not in best or seconds < best[name][0]:
                best[name] = (seconds, *answer)
    return {"seed": seed, **{
        name: _record(inst, truth, sigma, settings["tol"], *best[name]) for name in trees
    }}


def _summary(rows: list) -> dict:
    ratios = [row["change"]["solve_s"] / row["parent"]["solve_s"] for row in rows]
    out = {
        "median_paired_ratio": statistics.median(ratios),
        "faster_pairs": sum(ratio < 1 for ratio in ratios),
        "pairs": len(ratios),
    }
    for name in ("parent", "change"):
        tree = [row[name] for row in rows]
        out[name] = {
            "median_solve_s": statistics.median(r["solve_s"] for r in tree),
            "outer_mean": statistics.fmean(r["outer"] for r in tree),
            "inner_total": sum(r["inner"] for r in tree),
            "rho2_mean": statistics.fmean(r["rho2"] for r in tree),
            "max_certificate_ratio": max(r["certificate_ratio"] for r in tree),
            "all_certified": all(r["certified"] for r in tree),
        }
    return out


def compare(trees: dict, seeds, reps: int, label: str) -> dict:
    result = {}
    for design, sigma in ROWS:
        rows = []
        for seed in seeds:
            rows.append(_row(trees, design, sigma, seed, reps))
            print(f"{label} {design} sigma={sigma} seed={seed}: "
                  + " ".join(f"{name}={rows[-1][name]['solve_s']:.3f}/{rows[-1][name]['outer']}"
                             for name in trees), flush=True)
        result[f"{design} sigma={sigma}"] = {"summary": _summary(rows), "runs": rows}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="a checkout of the parent commit")
    parser.add_argument("--sections", default="sweep,acceptance",
                        help="comma-separated: sweep, acceptance, perfbench")
    parser.add_argument("--seeds", type=int, default=30, help="held-out seeds of the sweep")
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--reps", type=int, default=3, help="solves per tree and instance")
    parser.add_argument("--bench-seeds", default=",".join(str(seed) for seed in range(600, 606)),
                        help="perfbench seeds, one pair of runs each")
    parser.add_argument("--bench-seconds", type=float, default=50.0,
                        help="perfbench --seconds (BENCHMARK.json's run_seconds)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_tail.json")
    args = parser.parse_args(argv)
    sections = args.sections.split(",")
    parent = args.parent.resolve()
    trees = {"parent": load_parent(parent), "change": adm}

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data["environment"] = environment()
    data["size"] = list(SIZE)
    if "sweep" in sections:
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        data["sweep"] = {"seeds": [seeds.start, seeds.stop - 1], "reps": args.reps,
                         **compare(trees, seeds, args.reps, "sweep")}
    if "acceptance" in sections:
        data["acceptance"] = compare(trees, range(10), 1, "acceptance")
    if "perfbench" in sections:
        bench_seeds = [int(seed) for seed in args.bench_seeds.split(",")]
        data["perfbench"] = perfbench(parent, bench_seeds, args.bench_seconds)
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
