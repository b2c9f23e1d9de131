"""The benchmark's workloads: what each solves, and how one run measures it.

Every workload is a closed loop with one client: the next solve starts when
the previous one has returned.  ``--seconds`` fixes the amount of work, not a
deadline: a run does ``round(seconds / unit_s)`` units (at least one), where
``unit_s`` is the time one unit took, before any solver optimisation, on
the reference machine described in README.md.  Two commits measured with the same seed and seconds
therefore solve exactly the same instances, and two traced runs repeat their
counts exactly.
"""

from __future__ import annotations

import csv
import functools
import resource
import statistics
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import probe as probe_mod
from dantzig_adm import adm, cli
from dantzig_adm.adm import AdmConfig
from dantzig_adm.datagen import GenSpec, make_instance, mu_rule

SRC = Path(__file__).resolve().parent.parent / "src"
# The paper's tolerance for unit-column designs. The solver is given it and
# every certificate is checked against it; it is not taken from the program's
# tol_rule, so a looser rule there cannot pass for a faster solver.
PAPER_TOL = 1e-3
SETUP_REPEATS = 5  # instance generation in set-up is repeated and its median reported
IMPORT_SAMPLES = 7  # fresh-interpreter imports timed per run, spread over its units
WARMUP_OUTER = 3  # outer iterations of the untimed warm-up solve


@dataclass(frozen=True)
class Workload:
    name: str
    design: str
    size: tuple[int, int, int]
    sigma: float
    unit_s: float  # seconds per unit on the reference machine (sizes the run)
    pool_workers: int = 0  # > 0: the unit is one `dantzig-adm bench` call
    pool_reps: int = 0

    def spec(self, seed: int) -> GenSpec:
        n, p, s = self.size
        return GenSpec(n=n, p=p, s=s, sigma_noise=self.sigma, design_kind=self.design, seed=seed)

    def config(self, delta: float, **kwargs) -> AdmConfig:
        """The program's mu rule at the paper's tolerance."""
        p = self.size[1]
        return AdmConfig(mu=mu_rule(self.design, p, delta), tol=PAPER_TOL, **kwargs)


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline row, a fresh X per solve: heavy on outer
        # iterations and on the repeated G beta products.
        Workload(
            name="unit-i1",
            design="unit_columns",
            size=(720, 2560, 80),
            sigma=0.05,
            unit_s=1.75,
        ),
        # `dantzig-adm bench` on a 2-process pool of 1 BLAS thread each: the
        # only path through cli, the pool, and generation inside the workers.
        Workload(
            name="bench-pool",
            design="unit_columns",
            size=(720, 2560, 80),
            sigma=0.01,
            unit_s=4.5,
            pool_workers=2,
            pool_reps=8,
        ),
    )
}


def instance_seeds(seed: int, count: int) -> list[int]:
    """Distinct instance seeds drawn from the run seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def peak_rss_mb(children: bool) -> float:
    """Peak resident set size in MiB (ru_maxrss is KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def import_seconds() -> float:
    """Seconds to import the program in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
        "import dantzig_adm.cli; print(time.perf_counter() - start)"
    )
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=SRC.parent,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def import_due(units: int) -> list[int]:
    """The units before which the import is timed, IMPORT_SAMPLES spread over the run.

    The machine's speed drifts over tens of seconds, so import times taken
    back to back move together; spread over the run, their median sees the
    same conditions as the solves.
    """
    return [k * units // IMPORT_SAMPLES for k in range(IMPORT_SAMPLES)]


def _set_up(w: Workload, seed: int) -> float:
    """Median seconds to generate the first instance (Instance construction included).

    Ends with an untimed warm-up solve capped at WARMUP_OUTER outer iterations,
    because the first solve in a process runs slow.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        inst, _ = make_instance(w.spec(seed))
        times.append(perf_counter() - start)
    adm.solve(inst, w.config(inst.delta, max_outer_iter=WARMUP_OUTER))
    return statistics.median(times)


def run_in_process(w: Workload, seed: int, seconds: float, traced: bool) -> dict:
    """Solve a fresh instance per unit in this process, then evaluate it."""
    seeds = instance_seeds(seed, max(1, round(seconds / w.unit_s)))
    make_s = _set_up(w, seeds[0])
    due = import_due(len(seeds))
    import_s = []
    probe = probe_mod.Probe(w.name, PAPER_TOL, traced)
    probe.install()
    try:
        for unit, instance_seed in enumerate(seeds):
            import_s += [import_seconds() for _ in range(due.count(unit))]
            inst, truth = probe.make_instance(w.spec(instance_seed))
            beta, _, _ = probe.solve(inst, w.config(inst.delta))
            probe.evaluate(inst, beta, truth.beta_true, w.sigma)
    finally:
        probe.restore()
    data = probe.export()
    wall_s = sum(r["solve_s"] for r in data["records"]) + sum(data["evaluate_s"])
    return {
        "data": data,
        "attempted": len(data["records"]),
        "failed": sum(not r["ok"] for r in data["records"]),
        "setup_s": statistics.median(import_s) + make_s,
        "wall_s": wall_s,
        "workers": 1,
        "peak_rss_mb": peak_rss_mb(children=False),
        "unrestored": data["unrestored"],
    }


def pool_task(traced: bool, check_seed: int, task: dict):
    """Run one `bench` task inside a pool worker, probed.

    The worker's own copies of cli.make_instance, adm.solve and
    cli.evaluate_solution are replaced for the task, so the solve is timed
    and its answer checked in the worker, where beta and lambda exist.
    """
    probe = probe_mod.Probe("bench-pool", PAPER_TOL, traced, try_checker=task["seed"] == check_seed)
    probe.install()
    probe.patches.replace(cli, "make_instance", probe.make_instance)
    probe.patches.replace(adm, "solve", probe.solve)
    probe.patches.replace(cli, "evaluate_solution", probe.evaluate)
    try:
        outcome = cli._bench_instance(task)
    finally:
        probe.restore()
    return outcome, probe.export()


def recording_pool(exports: list, traced: bool):
    """A ProcessPoolExecutor for cli whose map probes each task and keeps its export."""

    class RecordingPool(ProcessPoolExecutor):
        def map(self, fn, tasks, **kwargs):
            tasks = list(tasks)
            task_fn = functools.partial(pool_task, traced, tasks[0]["seed"])
            pairs = list(super().map(task_fn, tasks, **kwargs))
            exports.extend(export for _, export in pairs)
            return iter([outcome for outcome, _ in pairs])

    return RecordingPool


def run_pool(w: Workload, seed: int, seconds: float, traced: bool, out_dir: Path) -> dict:
    """Call `dantzig-adm bench` in-process; the pool inside it does the solves."""
    calls = max(1, round(seconds / w.unit_s))
    base = instance_seeds(seed, 1)[0]
    make_s = _set_up(w, base)
    due = import_due(calls)
    import_s = []
    exports: list[dict] = []
    patches = probe_mod.Patches()
    patches.replace(cli, "ProcessPoolExecutor", recording_pool(exports, traced))
    reported_failures = 0
    wall_s = 0.0
    try:
        for call in range(calls):
            import_s += [import_seconds() for _ in range(due.count(call))]
            out = out_dir / f"{w.name}-seed{seed}-call{call}.csv"
            argv = [
                "bench", "--design", w.design, "--sigma", str(w.sigma), "--i", "1",
                "--tol", str(PAPER_TOL), "--reps", str(w.pool_reps),
                "--workers", str(w.pool_workers), "--seed", str(base + call * w.pool_reps),
                "--out", str(out),
            ]
            start = perf_counter()
            code = cli.main(argv)
            wall_s += perf_counter() - start
            reported_failures += _call_failures(code, out, w.pool_reps)
    finally:
        patches.restore()
    data = probe_mod.merge(exports)
    attempted = calls * w.pool_reps
    checked_failures = sum(not r["ok"] for r in data["records"]) + attempted - len(data["records"])
    return {
        "data": data,
        "attempted": attempted,
        "failed": max(reported_failures, checked_failures),
        "setup_s": statistics.median(import_s) + make_s,
        "wall_s": wall_s,
        "workers": w.pool_workers,
        "peak_rss_mb": peak_rss_mb(children=True),
        "unrestored": data["unrestored"] + patches.unrestored(),
    }


def _call_failures(code: int, csv_path: Path, reps: int) -> int:
    """Failures one bench call reports: all reps on a nonzero exit, else the CSV column."""
    if code != 0 or not csv_path.is_file():
        return reps
    with csv_path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != 1:
        return reps
    return int(rows[0]["failures"])


def run(name: str, seed: int, seconds: float, traced: bool, out_dir: Path) -> dict:
    w = WORKLOADS[name]
    if w.pool_workers:
        return run_pool(w, seed, seconds, traced, out_dir)
    return run_in_process(w, seed, seconds, traced)
