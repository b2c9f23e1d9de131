#!/usr/bin/env python3
"""Reproduce the smallest-size benchmark rows for both design families.

Runs the bench command at (n, p, s) = (720, 2560, 80) with 1% and 5% noise for
the unit-column and orthogonal-row designs, averaging over 10 seeded instances
per row, and writes one combined CSV.  Larger grid sizes follow by passing
--i 2, --i 3, ... to the bench command directly (runtime grows quickly).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dantzig_adm.cli import BENCH_HEADER, main as cli_main  # noqa: E402

ROWS = [
    ("unit", 0.01),
    ("unit", 0.05),
    ("ortho", 0.01),
    ("ortho", 0.05),
]


def run(out_path: Path, reps: int, seed: int, workers: int) -> int:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    lines = [BENCH_HEADER]
    for design, sigma in ROWS:
        row_file = out_path.with_suffix(f".{design}.{sigma}.part")
        code = cli_main(
            [
                "bench",
                "--design", design,
                "--sigma", str(sigma),
                "--i", "1",
                "--reps", str(reps),
                "--seed", str(seed),
                "--workers", str(workers),
                "--out", str(row_file),
            ]
        )
        if code != 0:
            print(f"bench failed for design={design} sigma={sigma} (exit {code})", file=sys.stderr)
            return code
        header, row = row_file.read_text().splitlines()
        assert header == BENCH_HEADER
        lines.append(row)
        row_file.unlink()
        print(row)
    out_path.write_text("\n".join(lines) + "\n")
    print(f"\nwrote {out_path}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/benchmarks.csv", help="combined CSV path")
    parser.add_argument("--reps", type=int, default=10, help="instances per row")
    parser.add_argument("--seed", type=int, default=0, help="seed of the first instance")
    parser.add_argument("--workers", type=int, default=1, help="parallel instance solves")
    args = parser.parse_args()
    print(BENCH_HEADER)
    sys.exit(run(Path(args.out), args.reps, args.seed, args.workers))
