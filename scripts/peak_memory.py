#!/usr/bin/env python3
"""Print the resident memory after each phase of a run of solves.

    python3 scripts/peak_memory.py [--size N,P,S] [--sigma SIGMA] [--solves K] [--seed SEED]

The loop is that of a closed-loop run of fresh unit-column instances (the
defaults are the paper's i=1 row at sigma 0.05): each unit builds an instance
while the previous one is still alive, solves it at tolerance 1e-3 with the
mu rule, and evaluates the answer.  After the imports and after each phase
it prints the current and the peak resident size of this process, VmRSS and
VmHWM of /proc/self/status in MiB, so the phase that raised the peak shows.
Before numpy is imported it pins BLAS to one thread and glibc's mmap
threshold at its 128 KiB default: left dynamic, the threshold rises to the
size of the largest block freed, and a later X is carved from the heap,
where the peak holds dead copies of X by chance of fragmentation.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes  # noqa: E402

ctypes.CDLL(None).mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD = -3

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

TOL = 1e-3


def resident_mib() -> tuple[float, float]:
    """(current, peak) resident size of this process in MiB."""
    fields = {}
    with open("/proc/self/status") as status:
        for line in status:
            key, _, value = line.partition(":")
            fields[key] = value
    return int(fields["VmRSS"].split()[0]) / 1024, int(fields["VmHWM"].split()[0]) / 1024


def report(phase: str) -> None:
    rss, peak = resident_mib()
    print(f"{phase:<24} {rss:9.1f} {peak:9.1f}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", default="720,2560,80", help="N,P,S of each instance")
    parser.add_argument("--sigma", type=float, default=0.05, help="noise level")
    parser.add_argument("--solves", type=int, default=3, help="units of the loop")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first instance")
    args = parser.parse_args(argv)
    n, p, s = (int(part) for part in args.size.split(","))

    print(f"{'phase':<24} {'rss_mib':>9} {'peak_mib':>9}")
    report("start")
    from dantzig_adm import adm
    from dantzig_adm.adm import AdmConfig
    from dantzig_adm.datagen import GenSpec, make_instance, mu_rule
    from dantzig_adm.evaluation import evaluate_solution

    report("imports")
    inst = None
    for unit in range(args.solves):
        spec = GenSpec(n=n, p=p, s=s, sigma_noise=args.sigma, seed=args.seed + unit)
        # the previous instance is alive while the next is built, as in a loop
        # that rebinds its variable
        inst, truth = make_instance(spec)
        report(f"build {unit}")
        config = AdmConfig(mu=mu_rule("unit_columns", p, inst.delta), tol=TOL)
        beta, _, run = adm.solve(inst, config)
        report(f"solve {unit} ({run.status})")
        evaluate_solution(inst, beta, truth.beta_true, args.sigma)
        report(f"evaluate {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
