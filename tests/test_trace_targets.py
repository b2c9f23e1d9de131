"""Every attribute the benchmark's traced runs replace must stay defined.

perfbench/probe.py swaps each (owner, attribute) of its TRACE_TARGETS for a
timed wrapper through ``vars(owner)[attr]``, so a renamed or deleted target
makes a traced run fail.  This test only imports probe; it changes nothing
under perfbench/.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def trace_targets():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import probe
    finally:
        sys.path.remove(str(PERFBENCH))
    return probe.TRACE_TARGETS


def test_every_trace_target_is_defined(trace_targets):
    assert trace_targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in trace_targets
        if attr not in vars(owner)
    ]
    assert not missing
