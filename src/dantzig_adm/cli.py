"""Command-line front end: instance generation, solves, benchmark tables, figure data.

Exit codes: 0 success, 1 usage error, 2 I/O error (missing or malformed input
files), 3 solver failure, 4 not converged (``solve`` hit its outer iteration
cap; outputs are still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, adm, fileio
from .adm import AdmConfig
from .core import Instance
from .datagen import GenSpec, make_instance, mu_rule, tol_rule
from .evaluation import evaluate_solution, feasibility_report, two_stage

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_SOLVER = 3
EXIT_NOT_CONVERGED = 4

WORKERS_ENV = "DANTZIG_ADM_WORKERS"
BENCH_HEADER = "design,sigma,n,p,s,instances,iter_mean,cpu_mean_s,rho2_mean,rho2_orig_mean,failures"
BASE_SIZE = (720, 2560, 80)  # multiplied by the --i grid factors

_DESIGNS = {
    "unit": "unit_columns",
    "ortho": "orthogonal_rows",
    "unit_columns": "unit_columns",
    "orthogonal_rows": "orthogonal_rows",
}


@dataclasses.dataclass
class BenchRow:
    """One averaged benchmark line: sizes, mean iterations/time, error ratios."""

    design_kind: str
    sigma_noise: float
    n: int
    p: int
    s: int
    n_instances: int
    iter_mean: float
    cpu_mean: float
    rho2_mean: float
    rho2_orig_mean: float
    failures: int

    def to_csv(self) -> str:
        return ",".join(
            [
                self.design_kind,
                _fmt(self.sigma_noise),
                str(self.n),
                str(self.p),
                str(self.s),
                str(self.n_instances),
                _fmt(self.iter_mean),
                _fmt(self.cpu_mean),
                _fmt(self.rho2_mean),
                _fmt(self.rho2_orig_mean),
                str(self.failures),
            ]
        )


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def _err(message: str) -> None:
    print(f"dantzig-adm: error: {message}", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dantzig-adm",
        description="Dantzig selector solver (alternating direction method) and benchmark harness.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    gen = sub.add_parser("gen", help="generate a simulated instance directory")
    gen.add_argument("--n", type=int, required=True, help="number of rows of X")
    gen.add_argument("--p", type=int, required=True, help="number of columns of X")
    gen.add_argument("--s", type=int, required=True, help="support size of the true signal")
    gen.add_argument("--sigma", type=float, required=True, help="noise standard deviation")
    gen.add_argument("--design", choices=sorted(_DESIGNS), default="unit", help="design family")
    gen.add_argument("--seed", type=int, default=0, help="base seed")
    gen.add_argument("--delta", type=float, default=None,
                     help="constraint level (default: sqrt(2 ln p) * sigma)")
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="solve an instance directory")
    solve.add_argument("instance_dir", help="directory holding X.mtx, y.mtx, manifest.txt")
    solve.add_argument("--mu", type=float, default=None, help="penalty (default: design rule)")
    solve.add_argument("--tol", type=float, default=None, help="outer tolerance (default: design rule)")
    solve.add_argument("--delta", type=float, default=None, help="override the manifest delta")
    solve.add_argument("--max-outer", type=int, default=10000, help="outer iteration cap")
    solve.add_argument("--out", default=None, help="output directory (default: instance dir)")
    solve.set_defaults(func=_cmd_solve)

    bench = sub.add_parser("bench", help="run a benchmark grid and emit one CSV row per size")
    bench.add_argument("--design", choices=sorted(_DESIGNS), default="unit")
    bench.add_argument("--sigma", type=float, required=True)
    bench.add_argument("--i", type=int, action="append", default=None, metavar="I",
                       help=f"size multiplier: (n,p,s) = I * {BASE_SIZE} (repeatable)")
    bench.add_argument("--size", action="append", default=None, metavar="N,P,S",
                       help="explicit size triple (repeatable)")
    bench.add_argument("--reps", type=int, default=10, help="instances per grid point")
    bench.add_argument("--seed", type=int, default=0, help="seed of the first instance; rep r uses seed+r")
    bench.add_argument("--mu", type=float, default=None, help="penalty override (default: design rule)")
    bench.add_argument("--tol", type=float, default=None, help="tolerance override (default: design rule)")
    bench.add_argument("--max-outer", type=int, default=10000)
    bench.add_argument("--workers", type=int, default=1,
                       help=f"parallel instance solves (capped by ${WORKERS_ENV})")
    bench.add_argument("--out", default=None, help="CSV path (default: stdout)")
    bench.set_defaults(func=_cmd_bench)

    fig = sub.add_parser("figure-data", help="export recovery scatter data as CSV")
    fig.add_argument("solution_dir", help="directory holding beta_tilde.mtx and friends")
    fig.add_argument("--background", type=int, default=200,
                     help="approximate number of off-support background coordinates")
    fig.add_argument("--out", default=None, help="CSV path (default: stdout)")
    fig.set_defaults(func=_cmd_figure_data)

    return parser


def _cmd_gen(args) -> int:
    spec = GenSpec(
        n=args.n,
        p=args.p,
        s=args.s,
        sigma_noise=args.sigma,
        design_kind=_DESIGNS[args.design],
        seed=args.seed,
    )
    if args.delta is None and not args.sigma > 0:
        _err("--delta is required when --sigma is 0")
        return EXIT_USAGE
    inst, truth = make_instance(spec, delta=args.delta)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_matrix(out / "X.mtx", inst.X)
    fileio.write_vector(out / "y.mtx", inst.y)
    fileio.write_vector(out / "beta_true.mtx", truth.beta_true)
    fileio.write_manifest(
        out / "manifest.txt",
        {
            "format_version": 1,
            "n": spec.n,
            "p": spec.p,
            "s": spec.s,
            "sigma": float(spec.sigma_noise),
            "design": spec.design_kind,
            "seed": spec.seed,
            "delta": float(inst.delta),
        },
    )
    return EXIT_OK


def _load_instance(instance_dir: Path, delta_override: float | None):
    """The instance, design kind and noise level of an instance directory.

    A manifest value that does not parse, a manifest delta that is not a
    positive number, and X and y of different row counts are malformed input
    files (FileFormatError); a bad --delta stays a usage error.
    """
    manifest_path = instance_dir / "manifest.txt"
    manifest = fileio.read_manifest(manifest_path)
    X = fileio.read_matrix(instance_dir / "X.mtx")
    y = fileio.read_vector(instance_dir / "y.mtx")
    if y.shape[0] != X.shape[0]:
        raise fileio.FileFormatError(
            f"{instance_dir / 'y.mtx'} has {y.shape[0]} rows but "
            f"{instance_dir / 'X.mtx'} has {X.shape[0]}"
        )
    design = _DESIGNS.get(manifest.get("design", "unit_columns"))
    if design is None:
        raise fileio.FileFormatError(f"{manifest_path}: unknown design kind {manifest['design']!r}")
    sigma = _manifest_float(manifest_path, "sigma", manifest.get("sigma", "0"))
    if delta_override is not None:
        delta = delta_override
    elif "delta" not in manifest:
        raise fileio.FileFormatError(f"{manifest_path} has no delta entry; pass --delta")
    else:
        delta = _manifest_float(manifest_path, "delta", manifest["delta"])
        if not (math.isfinite(delta) and delta > 0):
            raise fileio.FileFormatError(
                f"{manifest_path}: delta must be a positive finite number, got {delta}"
            )
    return Instance(X=X, y=y, delta=delta), design, sigma


def _manifest_float(path: Path, key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise fileio.FileFormatError(f"{path}: {key} = {text!r} is not a number") from None


def _cmd_solve(args) -> int:
    instance_dir = Path(args.instance_dir)
    inst, design, sigma = _load_instance(instance_dir, args.delta)
    mu = args.mu if args.mu is not None else mu_rule(design, inst.p, inst.delta)
    tol = args.tol if args.tol is not None else tol_rule(design)
    config = AdmConfig(mu=mu, tol=tol, max_outer_iter=args.max_outer)

    beta_tilde, lam, report = adm.solve(inst, config)

    out = Path(args.out) if args.out is not None else instance_dir
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_vector(out / "beta_tilde.mtx", beta_tilde)
    fileio.write_vector(out / "lambda.mtx", lam)
    certificate = feasibility_report(inst, beta_tilde, lam)._asdict()
    (out / "report.json").write_text(
        json.dumps({**dataclasses.asdict(report), "certificate": certificate}, indent=2) + "\n"
    )
    fileio.write_manifest(
        out / "run_manifest.txt",
        {
            "instance_dir": instance_dir,
            "package_version": __version__,
            "mu": float(mu),
            "tol": float(tol),
            "sub_tol_factor": float(config.sub_tol_factor),
            "max_outer_iter": config.max_outer_iter,
            "eta": float(config.subsolver.eta),
            "sigma_ls": float(config.subsolver.sigma_ls),
            "alpha_lo": float(config.subsolver.alpha_lo),
            "memory": config.subsolver.memory,
            "status": report.status,
        },
    )

    beta_hat = None
    if sigma > 0:
        beta_hat = two_stage(beta_tilde, inst, sigma)
        fileio.write_vector(out / "beta_hat.mtx", beta_hat)
    truth_path = instance_dir / "beta_true.mtx"
    if truth_path.exists() and sigma > 0:
        result = evaluate_solution(inst, beta_tilde, fileio.read_vector(truth_path), sigma,
                                   beta_hat=beta_hat)
        (out / "eval.json").write_text(json.dumps(_eval_to_json(result), indent=2) + "\n")

    if report.status == adm.STATUS_NUMERICAL_FAILURE:
        _err("solver hit non-finite values; partial outputs written")
        return EXIT_SOLVER
    if report.status == adm.STATUS_MAX_ITER:
        _err(f"not converged within {config.max_outer_iter} outer iterations; outputs written")
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _eval_to_json(result) -> dict:
    return {
        "rho2_orig": result.rho2_orig,
        "rho2": result.rho2,
        "support_estimated": result.support_estimated.tolist(),
        "support_true": result.support_true.tolist(),
        "true_positives": result.true_positives,
        "false_positives": result.false_positives,
        "oversized_support": result.oversized_support,
    }


def _bench_instance(task: dict) -> dict:
    """Generate and solve one benchmark instance; runs inside a worker."""
    try:
        spec = GenSpec(
            n=task["n"],
            p=task["p"],
            s=task["s"],
            sigma_noise=task["sigma"],
            design_kind=task["design"],
            seed=task["seed"],
        )
        inst, truth = make_instance(spec)
        mu = task["mu"] if task["mu"] is not None else mu_rule(spec.design_kind, spec.p, inst.delta)
        tol = task["tol"] if task["tol"] is not None else tol_rule(spec.design_kind)
        beta_tilde, _, report = adm.solve(
            inst, AdmConfig(mu=mu, tol=tol, max_outer_iter=task["max_outer"])
        )
        if report.status != adm.STATUS_CONVERGED:
            return {"status": report.status, "seed": task["seed"]}
        result = evaluate_solution(inst, beta_tilde, truth.beta_true, spec.sigma_noise)
        return {
            "status": report.status,
            "seed": task["seed"],
            "iterations": report.outer_iterations,
            "cpu": report.wall_time,
            "rho2": result.rho2,
            "rho2_orig": result.rho2_orig,
        }
    except Exception as exc:  # failures are logged per instance, not fatal
        return {"status": "error", "seed": task["seed"], "error": f"{type(exc).__name__}: {exc}"}


def _resolve_workers(requested: int, reps: int) -> int:
    cap = os.environ.get(WORKERS_ENV)
    workers = max(1, requested)
    if cap is not None:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {cap!r}") from None
    return min(workers, reps)


def _parse_sizes(args) -> list[tuple[int, int, int]]:
    sizes: list[tuple[int, int, int]] = []
    for factor in args.i or []:
        if factor < 1:
            raise ValueError(f"--i must be a positive multiplier, got {factor}")
        sizes.append(tuple(factor * b for b in BASE_SIZE))
    for text in args.size or []:
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError(f"--size expects N,P,S, got {text!r}")
        sizes.append(tuple(int(part) for part in parts))
    if not sizes:
        raise ValueError("provide at least one --i or --size")
    return sizes


def _cmd_bench(args) -> int:
    design = _DESIGNS[args.design]
    sizes = _parse_sizes(args)
    if args.reps < 1:
        _err(f"--reps must be positive, got {args.reps}")
        return EXIT_USAGE
    workers = _resolve_workers(args.workers, args.reps)

    lines = [BENCH_HEADER]
    for n, p, s in sizes:
        tasks = [
            {
                "n": n,
                "p": p,
                "s": s,
                "sigma": args.sigma,
                "design": design,
                "seed": args.seed + rep,
                "mu": args.mu,
                "tol": args.tol,
                "max_outer": args.max_outer,
            }
            for rep in range(args.reps)
        ]
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(_bench_instance, tasks))
        else:
            outcomes = [_bench_instance(task) for task in tasks]
        completed = [o for o in outcomes if o["status"] == adm.STATUS_CONVERGED]
        for outcome in outcomes:
            if outcome["status"] != adm.STATUS_CONVERGED:
                detail = outcome.get("error", outcome["status"])
                print(f"dantzig-adm: bench: seed {outcome['seed']} failed: {detail}", file=sys.stderr)
        row = BenchRow(
            design_kind=design,
            sigma_noise=args.sigma,
            n=n,
            p=p,
            s=s,
            n_instances=args.reps,
            iter_mean=_mean([o["iterations"] for o in completed]),
            cpu_mean=_mean([o["cpu"] for o in completed]),
            rho2_mean=_mean([o["rho2"] for o in completed]),
            rho2_orig_mean=_mean([o["rho2_orig"] for o in completed]),
            failures=args.reps - len(completed),
        )
        lines.append(row.to_csv())

    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text)
    return EXIT_OK


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else math.nan


def _cmd_figure_data(args) -> int:
    sol = Path(args.solution_dir)
    beta_tilde = fileio.read_vector(sol / "beta_tilde.mtx")
    p = beta_tilde.shape[0]
    beta_hat = None
    if (sol / "beta_hat.mtx").exists():
        beta_hat = fileio.read_vector(sol / "beta_hat.mtx")
    beta_true = None
    if (sol / "beta_true.mtx").exists():
        beta_true = fileio.read_vector(sol / "beta_true.mtx")

    columns = [("beta_true", beta_true), ("beta_tilde", beta_tilde), ("beta_hat", beta_hat)]
    columns = [(name, vec) for name, vec in columns if vec is not None]
    mask = np.zeros(p, dtype=bool)
    for _, vec in columns:
        mask |= vec != 0
    if args.background > 0:
        mask[:: max(1, p // args.background)] = True

    lines = ["index," + ",".join(name for name, _ in columns)]
    for j in np.flatnonzero(mask):
        lines.append(f"{j}," + ",".join(repr(float(vec[j])) for _, vec in columns))
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except fileio.FileFormatError as exc:
        _err(str(exc))
        return EXIT_IO
    except ValueError as exc:
        _err(str(exc))
        return EXIT_USAGE
    except OSError as exc:
        _err(str(exc))
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
