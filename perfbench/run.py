#!/usr/bin/env python3
"""Outside-in benchmark of the dantzig_adm solver.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload unit-i1 --seed 1 --seconds 30 --trace 0

Drives the library and the CLI from ``src/`` in this process, checks every
answer, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The raw record of every solve, the run summary with its machine description,
and (traced) the spans are written under ``perfbench/out/``.  Exits 2 without
a result when the program under ``src/`` is missing.
"""

import os

# Pin BLAS to one thread per process before numpy is first imported; pool
# workers inherit the environment, so `bench-pool` runs 2 x 1 threads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("DANTZIG_ADM_WORKERS", None)  # bench-pool sets its worker count itself

import ctypes  # noqa: E402

# Pin glibc's mmap threshold (M_MMAP_THRESHOLD = -3) at its 128 KiB default.
# Left dynamic, it rises to the size of the largest block freed, each later X
# is then carved from the heap, and the peak resident size holds one or two
# dead copies of X by chance of fragmentation.  Pinned, every block above
# 128 KiB is mapped and unmapped on its own, so peak_rss_mb follows live data.
# Pool workers are forked and inherit the setting.
ctypes.CDLL(None).mallopt(-3, 128 * 1024)

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END_UNITS = {
    "solve_s_p50": "s",
    "solves_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "rho2_mean": "ratio",
}


def environment() -> dict:
    """Machine, BLAS and versions, recorded with every result."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_per_process": int(BLAS_THREADS),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "python": platform.python_version(),
    }


def end_to_end(result: dict) -> dict:
    records = result["data"]["records"]
    values = {
        "solve_s_p50": statistics.median(r["solve_s"] for r in records),
        "solves_per_s": len(records) / result["wall_s"],
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "rho2_mean": statistics.fmean(r["rho2"] for r in records if "rho2" in r),
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def write_outputs(stem: str, summary: dict, data: dict) -> None:
    (OUT / f"{stem}.json").write_text(json.dumps(summary, indent=2) + "\n")
    with (OUT / f"{stem}.records.jsonl").open("w") as handle:
        for record in data["records"]:
            handle.write(json.dumps(record) + "\n")
    if data["spans"]:
        with gzip.open(OUT / f"{stem}.spans.jsonl.gz", "wt", compresslevel=1) as handle:
            for task, spans in enumerate(data["spans"]):
                for span in spans:
                    handle.write(json.dumps([task, *span]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="amount of work, as seconds on the reference machine")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dantzig_adm" / "__init__.py").is_file():
        print(f"perfbench: the program is missing: no {SRC / 'dantzig_adm'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dantzig_adm
    import probe
    import workloads

    if Path(dantzig_adm.__file__).resolve().parent != SRC / "dantzig_adm":
        print(f"perfbench: imported dantzig_adm from {dantzig_adm.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    OUT.mkdir(exist_ok=True)
    traced = bool(args.trace)
    result = workloads.run(args.workload, args.seed, args.seconds, traced, OUT)
    data = result["data"]
    if traced:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in probe.layer_metrics(
                data, result["workers"], result["wall_s"]
            ).items()
        }
    else:
        metrics = end_to_end(result)
    line = {
        "correct": result["failed"] == 0
        and data["checker_live"] is True
        and not result["unrestored"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "checker_live": data["checker_live"],
        "unrestored": result["unrestored"],
        "result": line,
    }
    write_outputs(f"{args.workload}-seed{args.seed}-trace{args.trace}", summary, data)
    print("environment: " + json.dumps(summary["environment"]))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
