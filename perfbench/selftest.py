#!/usr/bin/env python3
"""Self-test of the benchmark's answer check.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Solves one noisy instance and shows that its answer passes the certificate,
then feeds the same checking path wrong answers (the zero vector, and the
solution with 1e-2 noise added to every coordinate) and a capped solve that
did not converge, and a solve that converged only at a loosened tolerance,
and shows that each is counted as failed.  Also checks how
failures reported by `dantzig-adm bench` are read.  Prints one line per check
and exits 1 if any check does not hold.
"""

from __future__ import annotations

import dataclasses
import sys

import run  # pins BLAS threads before numpy is imported

sys.path.insert(0, str(run.SRC))

from certificate import wrong_answers  # noqa: E402
from probe import Probe  # noqa: E402
from workloads import PAPER_TOL, WORKLOADS, _call_failures  # noqa: E402

LOOSE_TOL = 1e-2  # a program that loosened its own tolerance to this must fail the check


def main() -> int:
    w = WORKLOADS["unit-i1"]
    probe = Probe("selftest", PAPER_TOL, traced=False)
    inst, truth = probe.make_instance(w.spec(0))
    beta, lam, report = probe.solve(inst, w.config(inst.delta))
    checks = [("a converged solve passes", probe.records[-1]["ok"])]

    for label, wrong in wrong_answers(beta, seed=0).items():
        record = probe.record(inst, wrong, lam, report.status, 0.0)
        terms = ", ".join(f"{k}={record[k]:.3g}" for k in ("gap", "primal", "dual"))
        checks.append((f"a wrong answer ({label}: {terms}) is counted as failed", not record["ok"]))

    probe.solve(inst, w.config(inst.delta, max_outer_iter=2))
    checks.append(("a capped solve (status max_iter) is counted as failed", not probe.records[-1]["ok"]))
    probe.solve(inst, dataclasses.replace(w.config(inst.delta), tol=LOOSE_TOL))
    record = probe.records[-1]
    checks.append((f"a solve converged at a loosened tol {LOOSE_TOL:g} (gap={record['gap']:.3g}) "
                   f"is counted as failed at tol {PAPER_TOL:g}",
                   record["status"] == "converged" and not record["ok"]))
    checks.append(("the run's own checker check holds", probe.checker_live is True))

    failed = sum(not r["ok"] for r in probe.records)
    checks.append((f"failed = {failed} of {len(probe.records)} attempted", failed == len(probe.records) - 1))

    csv_path = run.OUT / "selftest-bench.csv"
    run.OUT.mkdir(exist_ok=True)
    csv_path.write_text(
        "design,sigma,n,p,s,instances,iter_mean,cpu_mean_s,rho2_mean,rho2_orig_mean,failures\n"
        "unit_columns,0.01,720,2560,80,8,12,1,1.5,40,2\n"
    )
    checks.append(("a bench CSV failures column of 2 counts 2", _call_failures(0, csv_path, 8) == 2))
    checks.append(("a nonzero bench exit code counts every rep", _call_failures(3, csv_path, 8) == 8))

    for label, held in checks:
        print(f"{'PASS' if held else 'FAIL'}: {label}")
    return 0 if all(held for _, held in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
