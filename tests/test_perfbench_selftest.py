"""The benchmark's own answer check must pass on the program under src/.

Runs ``perfbench/selftest.py`` as a subprocess from the root of the checkout.
It solves one benchmark instance, shows that the answer passes the
benchmark's certificate and that wrong answers fail it, and exits 1 if any
check does not hold.  So a change under src/ that breaks the answers the
benchmark accepts fails here, not only in a benchmark run.  The self-test
reads perfbench/ and writes only under the git-ignored perfbench/out/.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    run = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "FAIL" not in run.stdout
