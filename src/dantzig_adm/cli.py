"""Command-line front end: instance generation, solves, benchmark tables, figure data.

Exit codes: 0 success, 1 usage error, 2 I/O error (missing or malformed input
files), 3 solver failure, 4 not converged (``solve`` hit its outer iteration
cap; outputs are still written).

``solve`` and ``bench`` take their settings from one rule (:func:`_config`):
``--mu``, ``--tol`` and ``--max-outer`` where given, else the design's mu
and tol rules.  ``bench`` validates and resolves every size's GenSpec and
AdmConfig in the parent before any solve, so a bad setting is a usage error,
and each worker only generates, solves and evaluates the instance it is handed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, adm, core, fileio, subsolver
from .adm import AdmConfig
from .core import Instance
from .datagen import DESIGN_KINDS, GenSpec, default_delta, make_instance, mu_rule, tol_rule
from .evaluation import evaluate_solution, feasibility_report, two_stage

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_SOLVER = 3
EXIT_NOT_CONVERGED = 4

BENCH_HEADER = "design,sigma,n,p,s,instances,iter_mean,cpu_mean_s,rho2_mean,rho2_orig_mean,failures"
BASE_SIZE = (720, 2560, 80)  # multiplied by the --i grid factors

_DESIGNS = dict(zip(DESIGN_KINDS, DESIGN_KINDS), unit="unit_columns", ortho="orthogonal_rows")


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
    settings = argparse.ArgumentParser(add_help=False)  # the solve settings (see _config)
    settings.add_argument("--mu", type=float, help="penalty (default: design rule)")
    settings.add_argument("--tol", type=float, help="outer tolerance (default: design rule)")
    settings.add_argument("--max-outer", type=int, default=AdmConfig.max_outer_iter,
                          help="outer iteration cap")

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

    solve = sub.add_parser("solve", parents=[settings], help="solve an instance directory")
    solve.add_argument("instance_dir", help="directory holding X.mtx, y.mtx, manifest.txt")
    solve.add_argument("--delta", type=float, default=None, help="override the manifest delta")
    solve.add_argument("--out", default=None, help="output directory (default: instance dir)")
    solve.set_defaults(func=_cmd_solve)

    bench = sub.add_parser("bench", parents=[settings],
                           help="run a benchmark grid and emit one CSV row per size")
    bench.add_argument("--design", choices=sorted(_DESIGNS), default="unit")
    bench.add_argument("--sigma", type=float, required=True)
    bench.add_argument("--i", type=int, action="append", default=None, metavar="I",
                       help=f"size multiplier: (n,p,s) = I * {BASE_SIZE} (repeatable)")
    bench.add_argument("--size", action="append", default=None, metavar="N,P,S",
                       help="explicit size triple (repeatable)")
    bench.add_argument("--reps", type=int, default=10, help="instances per grid point")
    bench.add_argument("--seed", type=int, default=0, help="seed of the first instance; rep r uses seed+r")
    bench.add_argument("--workers", type=int, default=1,
                       help="parallel instance solves (at most --reps)")
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

    A manifest value that does not parse, a sigma that is negative or not
    finite, a delta that is not valid, X and y of different row counts, and
    the file contents that :class:`Instance` rejects (an empty X, a
    non-finite entry, a zero column of X) are malformed input files
    (FileFormatError, naming the file); a bad --delta stays a usage error.
    """
    manifest_path = instance_dir / "manifest.txt"
    x_path, y_path = instance_dir / "X.mtx", instance_dir / "y.mtx"
    manifest = fileio.read_manifest(manifest_path)
    X = fileio.read_matrix(x_path)
    y = _read_vector(y_path, X.shape[0], f"{x_path} has {X.shape[0]} rows")
    design = _DESIGNS.get(manifest.get("design", "unit_columns"))
    if design is None:
        raise fileio.FileFormatError(f"{manifest_path}: unknown design kind {manifest['design']!r}")
    sigma = _manifest_float(manifest_path, "sigma", manifest.get("sigma", "0"))
    if not 0 <= sigma < math.inf:
        raise fileio.FileFormatError(f"{manifest_path}: sigma = {sigma} must be finite and >= 0")
    if delta_override is not None:
        delta = delta_override
    elif "delta" not in manifest:
        raise fileio.FileFormatError(f"{manifest_path} has no delta entry; pass --delta")
    else:
        delta = _manifest_float(manifest_path, "delta", manifest["delta"])
    try:
        return Instance(X=X, y=y, delta=delta), design, sigma
    except ValueError as exc:  # each of Instance's messages opens with the name it checks
        name = str(exc).split()[0]
        if name == "delta" and delta_override is not None:
            raise
        path = {"y": y_path, "delta": manifest_path}.get(name, x_path)
        raise fileio.FileFormatError(f"{path}: {exc}") from None


def _read_vector(path: Path, length: int, against: str) -> np.ndarray:
    """The vector in ``path``; FileFormatError, naming ``against``, unless it has ``length``."""
    vec = fileio.read_vector(path)
    if vec.shape[0] != length:
        raise fileio.FileFormatError(f"{path} has {vec.shape[0]} entries, but {against}")
    return vec


def _manifest_float(path: Path, key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise fileio.FileFormatError(f"{path}: {key} = {text!r} is not a number") from None


def _config(args, design: str, p: int, delta: float) -> AdmConfig:
    """The solve settings: --mu, --tol and --max-outer, the design rules where not given."""
    return AdmConfig(
        mu=args.mu if args.mu is not None else mu_rule(design, p, delta),
        tol=args.tol if args.tol is not None else tol_rule(design),
        max_outer_iter=args.max_outer,
    )


def _cmd_solve(args) -> int:
    instance_dir = Path(args.instance_dir)
    inst, design, sigma = _load_instance(instance_dir, args.delta)
    config = _config(args, design, inst.p, inst.delta)
    truth_path = instance_dir / "beta_true.mtx"
    beta_true = None
    if truth_path.exists() and sigma > 0:
        beta_true = _read_vector(truth_path, inst.p, f"X.mtx has {inst.p} columns")
        if not beta_true.any():  # a zero truth has no rho2 to rate against: no eval.json
            beta_true = None

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
            "mu": float(config.mu),
            "tol": float(config.tol),
            "sub_tol_factor": adm.SUB_TOL_FACTOR,
            "max_outer_iter": config.max_outer_iter,
            "eta": subsolver.ETA,
            "sigma_ls": subsolver.SIGMA_LS,
            "alpha_lo": subsolver.ALPHA_LO,
            "memory": subsolver.MEMORY,
            "status": report.status,
        },
    )

    beta_hat = None
    if sigma > 0:
        beta_hat = two_stage(beta_tilde, inst, sigma)
        fileio.write_vector(out / "beta_hat.mtx", beta_hat)
    if beta_true is not None:
        result = evaluate_solution(inst, beta_tilde, beta_true, sigma, beta_hat=beta_hat)
        text = json.dumps(dataclasses.asdict(result), indent=2, default=np.ndarray.tolist)
        (out / "eval.json").write_text(text + "\n")

    if report.status == adm.STATUS_NUMERICAL_FAILURE:
        _err("solver hit non-finite values; partial outputs written")
        return EXIT_SOLVER
    if report.status == adm.STATUS_MAX_ITER:
        _err(f"not converged within {config.max_outer_iter} outer iterations; outputs written")
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _bench_instance(task: dict) -> dict:
    """Generate, solve and evaluate one benchmark instance; runs inside a worker.

    ``task`` holds the instance's ``seed``, its GenSpec ``spec`` and the
    AdmConfig ``config`` that the parent resolved for its size.
    """
    try:
        spec = task["spec"]
        inst, truth = make_instance(spec)
        beta_tilde, _, report = adm.solve(inst, task["config"])
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


def ProcessPoolExecutor(*args, **kwargs):
    """concurrent.futures.ProcessPoolExecutor, imported when a pool is made.

    Importing it loads multiprocessing, and with it logging, socket,
    subprocess, selectors and queue: about 20 ms of every start of the CLI,
    which only ``bench --workers`` above 1 needs.
    """
    from concurrent.futures import ProcessPoolExecutor as executor

    return executor(*args, **kwargs)


def _parse_sizes(args) -> list[tuple[int, int, int]]:
    sizes: list[tuple[int, int, int]] = []
    for factor in args.i or []:
        if factor < 1:
            raise ValueError(f"--i must be a positive multiplier, got {factor}")
        sizes.append(tuple(factor * b for b in BASE_SIZE))
    for text in args.size or []:
        try:
            n, p, s = (int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"--size expects N,P,S, got {text!r}") from None
        sizes.append((n, p, s))
    if not sizes:
        raise ValueError("provide at least one --i or --size")
    return sizes


def _cmd_bench(args) -> int:
    design = _DESIGNS[args.design]
    sizes = _parse_sizes(args)
    for flag, value in (("--reps", args.reps), ("--workers", args.workers)):
        if value < 1:
            _err(f"{flag} must be positive, got {value}")
            return EXIT_USAGE
    grid = []  # every size's tasks before any solve: what a worker would reject is a usage error
    for n, p, s in sizes:
        if s < 1:
            raise ValueError(f"bench needs s >= 1 (no rho2 for a zero truth), got s = {s}")
        specs = [
            GenSpec(n=n, p=p, s=s, sigma_noise=args.sigma, design_kind=design, seed=args.seed + rep)
            for rep in range(args.reps)
        ]
        config = _config(args, design, p, default_delta(p, args.sigma))
        grid.append([{"seed": spec.seed, "spec": spec, "config": config} for spec in specs])
    workers = min(args.workers, args.reps)

    lines = [BENCH_HEADER]
    for (n, p, s), tasks in zip(sizes, grid):
        if workers > 1:
            # a forked worker keeps OpenBLAS's one thread per core; each gets one
            with ProcessPoolExecutor(workers, initializer=core.set_blas_threads, initargs=(1,)) as pool:
                outcomes = list(pool.map(_bench_instance, tasks))
        else:
            outcomes = [_bench_instance(task) for task in tasks]
        completed = [o for o in outcomes if o["status"] == adm.STATUS_CONVERGED]
        for outcome in outcomes:
            if outcome["status"] != adm.STATUS_CONVERGED:
                detail = outcome.get("error", outcome["status"])
                print(f"dantzig-adm: bench: seed {outcome['seed']} failed: {detail}", file=sys.stderr)
        keys = ("iterations", "cpu", "rho2", "rho2_orig")
        means = [_mean([o[key] for o in completed]) for key in keys]
        row = [design, _fmt(args.sigma), *map(str, (n, p, s, args.reps)), *map(_fmt, means)]
        lines.append(",".join([*row, str(args.reps - len(completed))]))

    return _write_text(args.out, lines)


def _write_text(out: str | None, lines: list[str]) -> int:
    """Write ``lines`` to the file ``out``, its directory made, or to stdout when None."""
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text)
    return EXIT_OK


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else math.nan


def _cmd_figure_data(args) -> int:
    sol = Path(args.solution_dir)
    beta_tilde = fileio.read_vector(sol / "beta_tilde.mtx")
    p = beta_tilde.shape[0]
    columns = [
        (name, beta_tilde if name == "beta_tilde"
         else _read_vector(sol / f"{name}.mtx", p, f"beta_tilde.mtx has {p}"))
        for name in ("beta_true", "beta_tilde", "beta_hat")
        if name == "beta_tilde" or (sol / f"{name}.mtx").exists()
    ]
    mask = np.any([vec != 0 for _, vec in columns], axis=0)
    if args.background > 0:
        mask[:: max(1, p // args.background)] = True

    lines = ["index," + ",".join(name for name, _ in columns)]
    for j in np.flatnonzero(mask):
        lines.append(f"{j}," + ",".join(repr(float(vec[j])) for _, vec in columns))
    return _write_text(args.out, lines)


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
