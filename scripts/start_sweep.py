#!/usr/bin/env python3
"""Measure the default screened start against the paper's zero start and a parent tree.

    python3 scripts/start_sweep.py [--sections sweep,acceptance,perfbench,parent]
                                   [--parent DIR] [--prefix KEY_PREFIX]
                                   [--out BENCH_start.json]

Each section writes its own key of the JSON file (the others are kept):

- ``sweep``: unit columns at (720, 2560, 80), sigma 0.01 and 0.05, on the
  held-out seeds 100-129 (``--seeds``, ``--first-seed``), solved from the zero
  start and from the screened fit on k = n//18, n//9, n/ln n and n//3
  columns.  A seed's starts run back to back, in reverse order on odd seeds,
  so that drift hits each start alike; a time includes forming the start.
  Each solve records its time, outer and inner iterations, the inner
  iterations of the first two inner solves, rho2, and the certificate's
  largest ratio, which must be at most tol.
- ``acceptance``: the 30 acceptance rows (unit sigma 0.05 and 0.01, orthogonal
  sigma 0.05, seeds 0-9) from both starts.  With ``--parent``, each default
  solve is compared with the default solve of the parent tree, run in a
  subprocess on that tree's src: each solve's ``parent`` holds the
  parent's outer and inner iterations, whether beta and lambda have the
  same sha256, and their largest change relative to the parent's largest
  entry, and ``against_parent`` sums these up per row.  (The unprefixed
  ``acceptance`` key, written when the parent's default was the zero start,
  compares the zero start instead, as ``equals_parent_default``.)
- ``perfbench``: with ``--parent``, ``perfbench/run.py --trace 0`` of both
  workloads on the parent tree and on this one, in alternating order over
  ``--bench-seeds``, for ``--bench-seconds`` each.
- ``parent``: with ``--parent``, the default solve of this tree against the
  parent's, in one process (the parent's src is loaded under another
  package name), on unit columns at sigma 0.01 and 0.05 and orthogonal rows
  at sigma 0.05, held-out seeds 100-129 (``--seeds``, ``--first-seed``).
  Each instance is solved ``--reps`` times by each tree, interleaved and in
  reverse order on odd seeds, and each tree keeps its fastest.  A row
  records both trees' times, the iterations of the first inner solve,
  outer and inner iterations, the start's refits (0 for a tree without
  them) and its own time, rho2 and the false positives of the two-stage
  refit, and the certificate's largest ratio over tol.

``--prefix`` is put before each key written, so that a later measurement
keeps an earlier one.  In ``BENCH_start.json`` the keys without a prefix
compare the zero start with the plain screened fit.  The ``refine_*`` keys
hold the fit refined by hard-thresholding pursuit: ``refine_sweep`` and
``refine_acceptance`` repeat the sweep and the acceptance rows on it, and
``refine_parent`` and ``refine_perfbench`` compare it with the parent's
plain fit (``--sections parent``, ``sweep,acceptance`` and ``perfbench
--bench-seeds 1801,...,1808``, each with ``--prefix refine_``);
``refine_seeds200_parent`` is ``--sections parent --first-seed 200
--seeds 40 --reps 1``, and ``refine_extra_perfbench`` two more pairs
(``--bench-seeds 1809,1810``).  The ``lsq_*`` keys compare least-squares
fits by the Cholesky factor of the column block's Gram matrix with the
parent's LAPACK SVD fits: ``lsq_parent`` is ``--sections parent`` (seeds
100-129), ``lsq_acceptance`` ``--sections acceptance`` and
``lsq_perfbench`` ``--sections perfbench --bench-seeds 2001,...,2010``, each
with ``--parent`` and ``--prefix lsq_``.

Before numpy is imported BLAS is pinned to one thread, as perfbench pins it.
The file also records the machine, the BLAS and the thread count.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from dantzig_adm.adm import AdmConfig, screened_start, solve  # noqa: E402
from dantzig_adm.datagen import GenSpec, make_instance, mu_rule, tol_rule  # noqa: E402
from dantzig_adm.evaluation import evaluate_solution, feasibility_report  # noqa: E402

SIZE = (720, 2560, 80)
# the starts of the sweep: "zero" is the paper's, the others the screened fit
# on k columns by a rule in n
GRID = {
    "zero": lambda inst: np.zeros(inst.p),
    "n//18": lambda inst: screened_start(inst, inst.n // 18),
    "n//9": lambda inst: screened_start(inst, inst.n // 9),
    "n/ln n": lambda inst: screened_start(inst, int(inst.n / math.log(inst.n))),
    "n//3": lambda inst: screened_start(inst, inst.n // 3),
}
# the acceptance rows' starts: the paper's and the solver's default
STARTS = {"zero": GRID["zero"], "default": screened_start}
ACCEPTANCE_ROWS = [("unit_columns", 0.05), ("unit_columns", 0.01), ("orthogonal_rows", 0.05)]
WORKLOADS = ("bench-pool", "unit-i1")
PARENT_PACKAGE = "parent_dantzig_adm"
# solves the acceptance rows with a tree's default start; run on the parent's src
PARENT_DEFAULT = """
import hashlib, json, sys
from dantzig_adm.adm import AdmConfig, solve
from dantzig_adm.datagen import GenSpec, make_instance, mu_rule, tol_rule
out = []
for design, sigma, seed in json.loads(sys.argv[1]):
    inst, _ = make_instance(GenSpec(n=720, p=2560, s=80, sigma_noise=sigma,
                                    design_kind=design, seed=seed))
    config = AdmConfig(mu=mu_rule(design, inst.p, inst.delta), tol=tol_rule(design))
    beta, lam, report = solve(inst, config)
    out.append({"beta_sha256": hashlib.sha256(beta.tobytes()).hexdigest(),
                "lambda_sha256": hashlib.sha256(lam.tobytes()).hexdigest(),
                "outer": report.outer_iterations, "inner": report.inner_iteration_total,
                "beta": beta.tolist(), "lambda": lam.tolist()})
print(json.dumps(out))
"""


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_per_process": int(BLAS_THREADS),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _instance(design: str, sigma: float, seed: int):
    n, p, s = SIZE
    spec = GenSpec(n=n, p=p, s=s, sigma_noise=sigma, design_kind=design, seed=seed)
    inst, truth = make_instance(spec)
    return inst, truth, AdmConfig(mu=mu_rule(design, p, inst.delta), tol=tol_rule(design))


def _relative_change(value: np.ndarray, reference: list) -> float:
    """max |value - reference| / max |reference| (0 when both are zero)."""
    reference = np.asarray(reference)
    scale = float(np.abs(reference).max())
    change = float(np.abs(value - reference).max())
    return change / scale if scale else change


def _run(inst, truth, sigma, config, start, parent=None) -> dict:
    """One solve from ``start(inst)``; its time includes forming the start.

    ``parent``, a row of PARENT_DEFAULT, adds the comparison with that solve.
    """
    t0 = time.perf_counter()
    beta, lam, report = solve(inst, config, beta0=start(inst))
    seconds = time.perf_counter() - t0
    certificate = feasibility_report(inst, beta, lam)
    worst = max(certificate.primal_ratio, certificate.dual_ratio, certificate.gap_ratio)
    row = {
        "solve_s": round(seconds, 5),
        "status": report.status,
        "outer": report.outer_iterations,
        "inner": report.inner_iteration_total,
        "inner_first_two": sum(report.inner_iteration_history[:2]),
        "start_support": report.start_support,
        "rho2": evaluate_solution(inst, beta, truth.beta_true, sigma).rho2,
        "certificate_max_ratio": worst,
        "certified": report.status == "converged" and worst <= config.tol,
        "beta_sha256": hashlib.sha256(beta.tobytes()).hexdigest(),
        "lambda_sha256": hashlib.sha256(lam.tobytes()).hexdigest(),
    }
    if parent is not None:
        row["parent"] = {
            "outer": parent["outer"],
            "inner": parent["inner"],
            "same_sha256": [row["beta_sha256"], row["lambda_sha256"]]
            == [parent["beta_sha256"], parent["lambda_sha256"]],
            "beta_rel_change": _relative_change(beta, parent["beta"]),
            "lambda_rel_change": _relative_change(lam, parent["lambda"]),
        }
    return row


def _summary(runs: dict, baseline: str = "zero") -> dict:
    """Per start: medians, totals and the paired time ratios against ``baseline``."""
    out = {}
    for name, rows in runs.items():
        ratios = [row["solve_s"] / base["solve_s"] for row, base in zip(rows, runs[baseline])]
        out[name] = {
            "median_solve_s": statistics.median(row["solve_s"] for row in rows),
            "median_paired_ratio": statistics.median(ratios),
            "faster_pairs": sum(ratio < 1 for ratio in ratios),
            "pairs": len(ratios),
            "outer_mean": statistics.fmean(row["outer"] for row in rows),
            "inner_total": sum(row["inner"] for row in rows),
            "inner_first_two_total": sum(row["inner_first_two"] for row in rows),
            "rho2_mean": statistics.fmean(row["rho2"] for row in rows),
            "all_certified": all(row["certified"] for row in rows),
        }
    return out


def sweep(seeds) -> dict:
    names = list(GRID)
    result = {}
    for sigma in (0.01, 0.05):
        runs = {name: [] for name in names}
        for seed in seeds:
            inst, truth, config = _instance("unit_columns", sigma, seed)
            for name in names if seed % 2 == 0 else names[::-1]:
                runs[name].append({"seed": seed, **_run(inst, truth, sigma, config, GRID[name])})
            print(f"sweep sigma={sigma} seed={seed}: "
                  + " ".join(f"{name}={runs[name][-1]['solve_s']:.3f}" for name in names),
                  flush=True)
        for rows in runs.values():
            for row in rows:
                del row["beta_sha256"], row["lambda_sha256"]
        result[f"sigma={sigma}"] = {"summary": _summary(runs), "runs": runs}
    return result


def acceptance(parent: Path | None) -> dict:
    cases = [(design, sigma, seed) for design, sigma in ACCEPTANCE_ROWS for seed in range(10)]
    parent_rows = [None] * len(cases)
    if parent is not None:
        env = {**os.environ, "PYTHONPATH": str(parent / "src")}
        run = subprocess.run([sys.executable, "-c", PARENT_DEFAULT, json.dumps(cases)],
                             capture_output=True, text=True, env=env, check=True)
        parent_rows = json.loads(run.stdout.splitlines()[-1])
    result = {}
    for design, sigma in ACCEPTANCE_ROWS:
        runs = {name: [] for name in STARTS}
        for seed in range(10):
            inst, truth, config = _instance(design, sigma, seed)
            parent_row = parent_rows[cases.index((design, sigma, seed))]
            for name in list(STARTS) if seed % 2 == 0 else list(STARTS)[::-1]:
                row = _run(inst, truth, sigma, config, STARTS[name],
                           parent_row if name == "default" else None)
                runs[name].append({"seed": seed, **row})
            print(f"acceptance {design} sigma={sigma} seed={seed}: "
                  f"zero={runs['zero'][-1]['solve_s']:.3f} "
                  f"default={runs['default'][-1]['solve_s']:.3f}", flush=True)
        result[f"{design} sigma={sigma}"] = {"summary": _summary(runs), "runs": runs}
        if parent is not None:
            compared = [row["parent"] for row in runs["default"]]
            result[f"{design} sigma={sigma}"]["against_parent"] = {
                "same_counts": sum(
                    (row["outer"], row["inner"]) == (old["outer"], old["inner"])
                    for row, old in zip(runs["default"], compared)
                ),
                "same_sha256": sum(old["same_sha256"] for old in compared),
                "rows": len(compared),
                "max_beta_rel_change": max(old["beta_rel_change"] for old in compared),
                "max_lambda_rel_change": max(old["lambda_rel_change"] for old in compared),
            }
    return result


def load_parent(parent: Path):
    """The parent tree's adm module, imported as a package of another name."""
    package = parent / "src" / "dantzig_adm"
    spec = importlib.util.spec_from_file_location(
        PARENT_PACKAGE, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[PARENT_PACKAGE] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{PARENT_PACKAGE}.adm")


def _paired_solve(module, inst, truth, sigma, config) -> dict:
    """One default solve by ``module`` (an adm module), and its start timed alone."""
    t0 = time.perf_counter()
    module.screened_start(inst, tol=config.tol)
    start_s = time.perf_counter() - t0
    settings = dict(mu=config.mu, tol=config.tol)
    t0 = time.perf_counter()
    beta, lam, report = module.solve(inst, module.AdmConfig(**settings))
    seconds = time.perf_counter() - t0
    certificate = feasibility_report(inst, beta, lam)
    worst = max(certificate.primal_ratio, certificate.dual_ratio, certificate.gap_ratio)
    quality = evaluate_solution(inst, beta, truth.beta_true, sigma)
    return {
        "solve_s": round(seconds, 5),
        "start_s": round(start_s, 5),
        "status": report.status,
        "first_inner": report.inner_iteration_history[0] if report.outer_iterations else 0,
        "outer": report.outer_iterations,
        "inner": report.inner_iteration_total,
        "start_rounds": getattr(report, "start_rounds", 0),
        "rho2": quality.rho2,
        "false_positives": quality.false_positives,
        "certificate_ratio": worst / config.tol,
        "certified": report.status == "converged" and worst <= config.tol,
    }


def parent_comparison(parent: Path, seeds, reps: int) -> dict:
    """This tree's default solve against the parent's, per instance (see the docstring)."""
    import dantzig_adm.adm as change

    trees = {"parent": load_parent(parent), "change": change}
    result = {"reps": reps}
    for design, sigma in ACCEPTANCE_ROWS:
        rows = []
        for seed in seeds:
            inst, truth, config = _instance(design, sigma, seed)
            order = list(trees) if seed % 2 == 0 else list(trees)[::-1]
            best, start_s = {}, {}
            for _ in range(reps):
                for name in order:
                    row = _paired_solve(trees[name], inst, truth, sigma, config)
                    start_s[name] = min(start_s.get(name, math.inf), row["start_s"])
                    if name not in best or row["solve_s"] < best[name]["solve_s"]:
                        best[name] = row
            for name in trees:
                best[name]["start_s"] = start_s[name]
            rows.append({"seed": seed, **best})
            print(f"parent {design} sigma={sigma} seed={seed}: "
                  + " ".join(f"{name}={best[name]['solve_s']:.3f}/{best[name]['outer']}"
                             for name in trees), flush=True)
        ratio = {key: [row["change"][key] / row["parent"][key] for row in rows]
                 for key in ("solve_s", "rho2")}
        summary = {
            "median_paired_ratio": statistics.median(ratio["solve_s"]),
            "faster_pairs": sum(r < 1 for r in ratio["solve_s"]),
            "pairs": len(rows),
            "median_paired_rho2_ratio": statistics.median(ratio["rho2"]),
        }
        for name in trees:
            tree = [row[name] for row in rows]
            summary[name] = {
                "median_solve_s": statistics.median(r["solve_s"] for r in tree),
                "median_start_s": statistics.median(r["start_s"] for r in tree),
                "first_inner_mean": statistics.fmean(r["first_inner"] for r in tree),
                "outer_mean": statistics.fmean(r["outer"] for r in tree),
                "inner_mean": statistics.fmean(r["inner"] for r in tree),
                "start_rounds": {str(k): sum(r["start_rounds"] == k for r in tree)
                                 for k in sorted({r["start_rounds"] for r in tree})},
                "rho2_mean": statistics.fmean(r["rho2"] for r in tree),
                "false_positives_mean": statistics.fmean(r["false_positives"] for r in tree),
                "max_certificate_ratio": max(r["certificate_ratio"] for r in tree),
                "all_certified": all(r["certified"] for r in tree),
            }
        result[f"{design} sigma={sigma}"] = {"summary": summary, "runs": rows}
    return result


def perfbench(parent: Path, seeds, seconds: float) -> dict:
    """Paired end-to-end runs of both workloads, parent and change in alternating order."""
    result = {}
    for workload in WORKLOADS:
        pairs = []
        for i, seed in enumerate(seeds):
            pair = {"seed": seed}
            trees = [("parent", parent), ("change", ROOT)]
            for name, tree in trees if i % 2 == 0 else trees[::-1]:
                run = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                    cwd=tree, capture_output=True, text=True, check=True,
                )
                line = json.loads(run.stdout.splitlines()[-1])
                pair[name] = {"correct": line["correct"], "failed": line["failed"],
                              **{key: value["value"] if isinstance(value, dict) else value
                                 for key, value in line["metrics"].items()}}
            print(f"perfbench {workload} seed={seed}: "
                  f"parent={pair['parent']['solve_s_p50']:.4f} "
                  f"change={pair['change']['solve_s_p50']:.4f}", flush=True)
            pairs.append(pair)
        ratios = [pair["change"]["solve_s_p50"] / pair["parent"]["solve_s_p50"] for pair in pairs]
        result[workload] = {
            "seconds": seconds,
            "median_solve_s_p50": {
                name: statistics.median(pair[name]["solve_s_p50"] for pair in pairs)
                for name in ("parent", "change")
            },
            "solve_s_p50_ratios": ratios,
            "pairs": pairs,
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sections", default="sweep,acceptance",
                        help="comma-separated: sweep, acceptance, perfbench, parent")
    parser.add_argument("--seeds", type=int, default=30, help="held-out seeds of the sweep")
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--parent", type=Path, help="a checkout of the parent commit")
    parser.add_argument("--bench-seeds", default=",".join(str(seed) for seed in range(501, 511)),
                        help="perfbench seeds, one pair of runs each")
    parser.add_argument("--bench-seconds", type=float, default=50.0,
                        help="perfbench --seconds (BENCHMARK.json's run_seconds)")
    parser.add_argument("--reps", type=int, default=3,
                        help="solves per tree and instance in the parent section")
    parser.add_argument("--prefix", default="", help="put before each key written")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_start.json")
    args = parser.parse_args(argv)
    sections = args.sections.split(",")
    if {"perfbench", "parent"} & set(sections) and args.parent is None:
        parser.error("the perfbench and parent sections need --parent")

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[args.prefix + "environment"] = environment()
    data[args.prefix + "size"] = list(SIZE)
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    if "sweep" in sections:
        data[args.prefix + "sweep"] = {"seeds": [seeds.start, seeds.stop - 1], **sweep(seeds)}
    if "acceptance" in sections:
        data[args.prefix + "acceptance"] = acceptance(args.parent)
    if "parent" in sections:
        data[args.prefix + "parent"] = {"seeds": [seeds.start, seeds.stop - 1],
                                        **parent_comparison(args.parent.resolve(), seeds,
                                                            args.reps)}
    if "perfbench" in sections:
        bench_seeds = [int(seed) for seed in args.bench_seeds.split(",")]
        data[args.prefix + "perfbench"] = perfbench(args.parent.resolve(), bench_seeds,
                                                    args.bench_seconds)
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
