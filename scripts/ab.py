#!/usr/bin/env python3
"""Compare checkouts of this repository solve for solve: the paired A/B driver.

    python3 scripts/ab.py --trees A B [C ...] --out BENCH_x.json
                          [--seeds 100-129] [--reps 3] [--bench-seeds 501-510]

Each tree is a checkout (a git clone or a ``git archive`` extract); the first
is the baseline.  The ``src/dantzig_adm`` of every tree, this checkout's
included, is imported by path under a package name of its own, so all trees
solve in this process and each tree's modules come from its own files.  The
instances, the certificate (``feasibility_report``) and ``evaluate_solution``
come from this checkout.  Each solve gets a fresh ``Instance`` of its own
tree, built from the instance's arrays outside the timed region, so that no
tree runs another's methods.  A tree whose ``Instance`` forms X^T y in its
construction, as perfbench's instances do, makes no X^T y product inside
the timed solve, where an older tree makes one; its paired ratio credits
that saved pass over X.

The rows are unit columns at sigma 0.05 and 0.01 and orthogonal rows at
sigma 0.05, at (720, 2560, 80).  Each tree solves with its own
``datagen.mu_rule`` and ``datagen.tol_rule`` for the design, so a change to
a rule shows as a change of counts, and each answer is certified at its
tree's tol:

- ``acceptance``: seeds 0-9, one solve per tree;
- ``held_out``: the seeds of ``--seeds``, each instance solved ``--reps``
  times by each tree, the trees interleaved and in reverse order on odd
  seeds; a tree's time is its fastest.

Each solve records its time and status; its outer, inner and ``rounds``
counts, the first inner solve's iterations, ``start_rounds`` and
``subsolver_failures`` (the last four 0 for a tree whose ``RunReport``
lacks them); each round's |W| (``round_columns``, empty for such a tree);
the ``rho2`` and false positives of the two-stage refit; the certificate's
largest ratio over tol; the sha256 of beta and lambda; and the largest
change of beta and lambda relative to the first tree's largest entry.
Each row's summary holds, per tree and against the first tree, the median
paired time ratio and the seeds solved faster,
the seeds with equal (outer, inner, rounds) and with equal bytes, and the
largest relative changes; and the tree's median time, its means, the solves
with a subsolver failure (an inner solve that missed its tolerance; a claim
of equal bytes names the rows that took that path), and whether every
answer was certified (converged, with every ratio at most tol).

A cost model prices the counts (:func:`cost_model`).  For each tree, a
nonnegative least-squares fit of its held-out solve times on (1, outer,
inner, ``rounds``, ``start_rounds``, the sum of |W| over the rounds) over
every row gives its unit costs and R^2, overall and per row.  For each
row, each tree's count-predicted ratio is the median over seeds of its
counts priced at the first tree's unit costs over the first tree's counts
priced the same, so equal counts read 1 exactly.  A change of counts then
reads as a predicted ratio, and a change of unit cost with equal counts as
lower unit costs.

``--bench-seeds`` runs ``perfbench/run.py --trace 0`` of each workload of
BENCHMARK.json on every tree for its ``run_seconds``: one run per tree and
seed, the trees in reverse order on odd pairs.  Each run is started from a
small interpreter of its own (``LAUNCHER``), so that its ``peak_rss_mb`` is
its own and not that of this script.  A run that fails is kept with its
exit code and the last line of its stderr, and the other runs are still
written.  For each workload and each end-to-end metric of BENCHMARK.json,
the file holds the rule for a claimed gain against the first tree
(:func:`verdict`): each tree's median and quartiles, the pairs it won,
whether its gain exceeds the first tree's quartile gap, and whether it is
worse than the metric's bound; one line per workload prints it.

Seeds are given as a range ``A-B`` (inclusive) or a list ``A,B,...``.  BLAS
is pinned to one thread before numpy is imported, as perfbench pins it.  The
file records the machine, the BLAS, the thread count, numpy and Python, and
each tree's path and, for the top of a git checkout, its commit.
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

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SIZE = (720, 2560, 80)
ROWS = [("unit_columns", 0.05), ("unit_columns", 0.01), ("orthogonal_rows", 0.05)]
ACCEPTANCE_SEEDS = range(10)
MEANS = ("outer", "inner", "rounds", "first_inner", "start_rounds", "rho2", "false_positives")
# the counts that the cost model prices, beside a fixed cost per solve; a
# round's fixed cost grows with |W| (its copy and G_W), so the last is the
# sum of round_columns, 0 for a tree whose records lack it
PRICED = ("outer", "inner", "rounds", "start_rounds", "round_columns")
# runs its arguments as a command and exits with its code.  perfbench reads
# its peak resident size from ru_maxrss, and a process started by exec keeps
# the peak of the process it replaced: run straight from a driver that had
# solved, every perfbench run reported the driver's own peak (251.63 MiB in
# BENCH_generation.json's gen_perfbench_first).  Started from this small
# interpreter, each run reports its own.
LAUNCHER = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"


def load(path: Path, name: str):
    """The dantzig_adm package of the checkout at ``path``, imported as ``name``.

    Its ``__init__`` imports its ``core``, ``adm``, ``datagen`` and
    ``evaluation``, so they are attributes of the package.
    """
    package = path / "src" / "dantzig_adm"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def describe(path: Path) -> dict:
    """The tree's path, and its commit when it is the top of a git checkout.

    The commit ends in ``-dirty`` when tracked files differ from it.
    """
    def git(*args: str) -> str:
        run = subprocess.run(["git", "-C", str(path), *args], capture_output=True, text=True)
        return run.stdout.strip() if run.returncode == 0 else ""

    top = git("rev-parse", "--show-toplevel")
    commit = git("describe", "--always", "--dirty", "--abbrev=40", "--exclude=*")
    return {"path": str(path), "commit": commit if top and Path(top) == path else None}


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


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def _order(count: int, k: int) -> list[int]:
    """Tree indices, in reverse order when ``k`` is odd."""
    return list(range(count))[:: -1 if k % 2 else 1]


def _change(value: np.ndarray, reference: np.ndarray) -> float:
    """max |value - reference| / max |reference| (the absolute change when that is 0)."""
    scale = float(np.abs(reference).max())
    change = float(np.abs(value - reference).max())
    return change / scale if scale else change


def _record(checkout, inst, truth, sigma, tol, seconds, beta, lam, report) -> dict:
    certificate = checkout.evaluation.feasibility_report(inst, beta, lam)
    worst = max(certificate.primal_ratio, certificate.dual_ratio, certificate.gap_ratio)
    quality = checkout.evaluation.evaluate_solution(inst, beta, truth.beta_true, sigma)
    return {
        "solve_s": round(seconds, 5),
        "status": report.status,
        "outer": report.outer_iterations,
        "inner": report.inner_iteration_total,
        "rounds": getattr(report, "rounds", 0),
        "first_inner": (getattr(report, "inner_iteration_history", None) or [0])[0],
        "start_rounds": getattr(report, "start_rounds", 0),
        "subsolver_failures": getattr(report, "subsolver_failures", 0),
        "round_columns": list(getattr(report, "round_columns", [])),
        "rho2": quality.rho2,
        "false_positives": quality.false_positives,
        "certificate_ratio": worst / tol,
        "certified": report.status == "converged" and worst <= tol,
        "beta_sha256": hashlib.sha256(beta.tobytes()).hexdigest(),
        "lambda_sha256": hashlib.sha256(lam.tobytes()).hexdigest(),
    }


def paired_row(checkout, trees: list, design: str, sigma: float, seed: int,
               reps: int) -> dict:
    """Every tree on one instance, interleaved, each timed by its fastest of ``reps``.

    Each tree takes mu and tol from its own rules, and its answer is
    certified at its own tol.
    """
    n, p, s = SIZE
    spec = checkout.datagen.GenSpec(n=n, p=p, s=s, sigma_noise=sigma, design_kind=design,
                                    seed=seed)
    inst, truth = checkout.datagen.make_instance(spec)
    tols = [tree.datagen.tol_rule(design) for tree in trees]
    mus = [tree.datagen.mu_rule(design, p, inst.delta) for tree in trees]
    seconds, answers = [math.inf] * len(trees), [None] * len(trees)
    for _ in range(reps):
        for i in _order(len(trees), seed):
            own = trees[i].core.Instance(inst.X, inst.y, inst.delta)
            t0 = time.perf_counter()
            answers[i] = trees[i].adm.solve(own, trees[i].adm.AdmConfig(mu=mus[i], tol=tols[i]))
            seconds[i] = min(seconds[i], time.perf_counter() - t0)
    solves = []
    for tol, elapsed, (beta, lam, report) in zip(tols, seconds, answers):
        solves.append({**_record(checkout, inst, truth, sigma, tol, elapsed, beta, lam, report),
                       "beta_change": _change(beta, answers[0][0]),
                       "lambda_change": _change(lam, answers[0][1])})
    return {"seed": seed, "solves": solves}


def _counts(solve: dict) -> tuple:
    return solve["outer"], solve["inner"], solve["rounds"]


def _bytes(solve: dict) -> tuple:
    return solve["beta_sha256"], solve["lambda_sha256"]


def summary(runs: list[dict]) -> list[dict]:
    """Per tree, against the first tree (see the module docstring)."""
    first = [run["solves"][0] for run in runs]
    out = []
    for i in range(len(runs[0]["solves"])):
        tree = [run["solves"][i] for run in runs]
        ratios = [mine["solve_s"] / base["solve_s"] for mine, base in zip(tree, first)]
        out.append({
            "median_paired_ratio": statistics.median(ratios),
            "faster": sum(ratio < 1 for ratio in ratios),
            "same_counts": sum(_counts(a) == _counts(b) for a, b in zip(tree, first)),
            "same_bytes": sum(_bytes(a) == _bytes(b) for a, b in zip(tree, first)),
            "max_beta_change": max(solve["beta_change"] for solve in tree),
            "max_lambda_change": max(solve["lambda_change"] for solve in tree),
            "median_solve_s": statistics.median(solve["solve_s"] for solve in tree),
            **{f"{key}_mean": statistics.fmean(solve[key] for solve in tree) for key in MEANS},
            "solves_with_failures": sum(solve["subsolver_failures"] > 0 for solve in tree),
            "max_certificate_ratio": max(solve["certificate_ratio"] for solve in tree),
            "all_certified": all(solve["certified"] for solve in tree),
        })
    return out


def compare(checkout, trees: list, seeds: list[int], reps: int, label: str) -> dict:
    result = {"seeds": [seeds[0], seeds[-1]], "reps": reps}
    for design, sigma in ROWS:
        runs = []
        for seed in seeds:
            runs.append(paired_row(checkout, trees, design, sigma, seed, reps))
            print(f"{label} {design} sigma={sigma} seed={seed}: " + " ".join(
                f"{solve['solve_s']:.3f}/{solve['outer']}/{solve['inner']}"
                for solve in runs[-1]["solves"]), flush=True)
        result[f"{design} sigma={sigma}"] = {"summary": summary(runs), "runs": runs}
    return result


def _priced(solves: list[dict]) -> np.ndarray:
    """One row (1, outer, inner, rounds, start_rounds, sum of round_columns) per solve."""
    return np.array([[1.0, *(solve[key] for key in PRICED[:-1]), sum(solve[PRICED[-1]])]
                     for solve in solves])


def _r2(features: np.ndarray, seconds: np.ndarray, costs: np.ndarray) -> float | None:
    """1 - SS_res / SS_tot of the priced times; None when the times do not vary."""
    total = float(((seconds - seconds.mean()) ** 2).sum())
    residual = float(((seconds - features @ costs) ** 2).sum())
    return 1.0 - residual / total if total > 0 else None


def cost_model(held_out: dict) -> dict:
    """Each tree's unit costs and R^2, and each row's count-predicted ratios.

    See the module docstring.  The unit costs are seconds per solve, per
    outer and inner iteration, per round, per refit of the start and per
    column of W per round.  They are fitted nonnegative (scipy's nnls): an
    unconstrained fit priced a round at -1791 us on one tree, since within
    one tree the rounds and the sum of |W| move together and the times'
    noise dominates, and a negative unit cost is no cost.
    """
    from scipy.optimize import nnls

    names = (f"{design} sigma={sigma}" for design, sigma in ROWS)
    rows = {name: [run["solves"] for run in held_out[name]["runs"]] for name in names}
    count = len(next(iter(rows.values()))[0])
    trees = []
    for i in range(count):
        mine = {name: [solves[i] for solves in runs] for name, runs in rows.items()}
        every = [solve for solves in mine.values() for solve in solves]
        features, seconds = _priced(every), np.array([solve["solve_s"] for solve in every])
        costs = nnls(features, seconds)[0]
        trees.append({
            "unit_costs": dict(zip(("solve", *PRICED), costs.tolist())),
            "r2": _r2(features, seconds, costs),
            "r2_by_row": {name: _r2(_priced(solves), np.array([s["solve_s"] for s in solves]),
                                    costs) for name, solves in mine.items()},
        })
    base = np.array(list(trees[0]["unit_costs"].values()))
    predicted = {}
    for name, runs in rows.items():
        first = _priced([solves[0] for solves in runs]) @ base
        predicted[name] = [float(statistics.median((_priced([solves[i] for solves in runs]) @ base)
                                                   / first)) for i in range(count)]
    return {"trees": trees, "predicted_ratio": predicted}


def _cost_lines(model: dict) -> list[str]:
    """Per tree, its unit costs and R^2; per later tree, its count-predicted ratios."""
    def r2(value):
        return "n/a" if value is None else f"{value:.3f}"

    lines = []
    for i, tree in enumerate(model["trees"]):
        costs = " + ".join(f"{1e6 * cost:.1f} us/{key}" for key, cost in tree["unit_costs"].items())
        rows = ", ".join(r2(value) for value in tree["r2_by_row"].values())
        lines.append(f"cost model tree{i}: {costs}; R^2 {r2(tree['r2'])} (rows {rows})")
    for i in range(1, len(model["trees"])):
        ratios = ", ".join(f"{name} {ratios[i]:.4f}"
                           for name, ratios in model["predicted_ratio"].items())
        lines.append(f"count-predicted ratio tree{i}: {ratios}")
    return lines


def _bench_run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``: its metrics, or how it failed.

    A run that exits nonzero or whose last line of stdout is no JSON object
    gives its exit code and the last line of its stderr instead.
    """
    run = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "perfbench/run.py",
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = run.stdout.splitlines()
    try:
        line = json.loads(lines[-1]) if run.returncode == 0 and lines else None
    except json.JSONDecodeError:
        line = None
    if not isinstance(line, dict):
        stderr = run.stderr.strip().splitlines()
        return {"exit_code": run.returncode, "error": stderr[-1] if stderr else ""}
    return {"correct": line["correct"], "failed": line["failed"],
            **{key: value["value"] if isinstance(value, dict) else value
               for key, value in line["metrics"].items()}}


def verdict(pairs: list[dict], metrics: list[dict]) -> dict:
    """The choosing-metrics rule for a claimed gain, per end-to-end metric and tree.

    ``metrics`` are BENCHMARK.json's ``end_to_end`` entries.  Per tree, over
    its runs that gave the metric: the median and quartiles; the pairs it won
    against the first tree (ties and failed runs count for neither); the
    gain, the first tree's median minus its own, signed so that a positive
    gain is better; whether the gain exceeds the first tree's quartile gap;
    whether it won nine tenths of the pairs with that gain (the claim); and
    whether its median is worse than the first tree's by more than the
    metric's bound, a fraction of the first tree's median.
    """
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        values = [[run.get(name) for run in pair["runs"]] for pair in pairs]
        trees = []
        for i in range(len(pairs[0]["runs"])):
            mine = [row[i] for row in values if row[i] is not None]
            if not mine:
                trees.append({"runs": 0})
                continue
            q1, median, q3 = (statistics.quantiles(mine, n=4, method="inclusive")
                              if len(mine) > 1 else mine * 3)
            trees.append({"runs": len(mine), "median": median, "quartiles": [q1, q3],
                          "won": sum(row[0] is not None and row[i] is not None
                                     and sign * (row[0] - row[i]) > 0 for row in values)})
        first = trees[0]
        for tree in trees:
            if not tree["runs"] or not first["runs"]:
                continue
            gain = sign * (first["median"] - tree["median"])
            iqr = first["quartiles"][1] - first["quartiles"][0]
            tree.update(gain=gain, gain_exceeds_iqr=gain > iqr,
                        claim_met=tree["won"] >= 0.9 * len(pairs) and gain > iqr,
                        worse_than_bound=-gain > metric["bound"] * abs(first["median"]))
        out[name] = trees
    return out


def _verdict_line(workload: str, result: dict, pairs: int) -> str:
    """One line per workload: per metric, each later tree against the first."""
    def spread(tree):
        return f"{tree['median']:.4g} [{tree['quartiles'][0]:.4g}, {tree['quartiles'][1]:.4g}]"

    cells = []
    for name, trees in result.items():
        for i, tree in enumerate(trees[1:], 1):
            if "gain" not in tree:
                cells.append(f"{name} tree{i}: no runs to compare")
                continue
            cells.append(
                f"{name} tree{i} {spread(tree)} vs {spread(trees[0])}, won {tree['won']}/{pairs},"
                f" gain {'>' if tree['gain_exceeds_iqr'] else '<='} iqr,"
                f" claim {'met' if tree['claim_met'] else 'not met'}"
                + (", WORSE by more than its bound" if tree["worse_than_bound"] else ""))
    return f"perfbench {workload}: " + "; ".join(cells)


def perfbench(trees: list[Path], seeds: list[int]) -> dict:
    """Paired end-to-end runs of every workload (see the module docstring)."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {"seconds": benchmark["run_seconds"]}
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        pairs = []
        for k, seed in enumerate(seeds):
            runs = [None] * len(trees)
            for i in _order(len(trees), k):
                runs[i] = _bench_run(trees[i], workload, seed, result["seconds"])
            pairs.append({"seed": seed, "runs": runs})
            print(f"perfbench {workload} seed={seed}: " + " ".join(
                f"{run['solve_s_p50']:.4f}" if "solve_s_p50" in run
                else f"failed({run['exit_code']})" for run in runs), flush=True)
        result[workload] = {"verdict": verdict(pairs, benchmark["end_to_end"]), "pairs": pairs}
        print(_verdict_line(workload, result[workload]["verdict"], len(pairs)), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trees", type=Path, nargs="+", required=True,
                        help="checkouts to compare; the first is the baseline")
    parser.add_argument("--seeds", type=seed_list, default="100-129",
                        help="held-out seeds (default 100-129)")
    parser.add_argument("--reps", type=int, default=3,
                        help="solves per tree and held-out instance; the fastest counts")
    parser.add_argument("--bench-seeds", type=seed_list, default=[],
                        help="perfbench seeds, one run per tree each (default: no perfbench)")
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = parser.parse_args(argv)

    checkout = load(ROOT, "ab_checkout")
    paths = [path.resolve() for path in args.trees]
    trees = [load(path, f"ab_tree{i}") for i, path in enumerate(paths)]
    data = {"environment": environment(), "size": list(SIZE),
            "trees": [describe(path) for path in paths],
            "acceptance": compare(checkout, trees, list(ACCEPTANCE_SEEDS), 1, "acceptance"),
            "held_out": compare(checkout, trees, args.seeds, args.reps, "held_out")}
    data["cost_model"] = cost_model(data["held_out"])
    print("\n".join(_cost_lines(data["cost_model"])), flush=True)
    if args.bench_seeds:
        data["perfbench"] = perfbench(paths, args.bench_seeds)
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
