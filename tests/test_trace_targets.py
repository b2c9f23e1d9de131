"""Every attribute the benchmark's traced runs replace must stay defined.

perfbench/probe.py swaps each (owner, attribute) of its TRACE_TARGETS for a
timed wrapper through ``vars(owner)[attr]``, so a renamed or deleted target
makes a traced run fail, and a target the loops no longer reach through that
attribute (an inlined helper, say) makes its traced metrics read 0.  These
tests only import probe; they change nothing under perfbench/.
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


# The loops' helpers whose traced spans make the per-layer metrics; each must
# still be called through its module attribute, or its metric reads 0.
CALLED_TARGETS = (
    "update_z",
    "update_lambda",
    "_criterion_terms",
    "solve_subproblem",
    "line_search",
    "search_direction",
    "inner_termination_metric",
    "bb_step",
)


def test_a_solve_calls_every_loop_target(trace_targets, monkeypatch):
    from dantzig_adm import AdmConfig, GenSpec, make_instance, mu_rule, solve, tol_rule

    calls = {}
    for owner, attr, _ in trace_targets:
        if attr not in CALLED_TARGETS:
            continue

        def counted(*args, _fn=vars(owner)[attr], _attr=attr, **kwargs):
            calls[_attr] = calls.get(_attr, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    assert {attr for _, attr, _ in trace_targets} >= set(CALLED_TARGETS)
    spec = GenSpec(48, 200, 5, 0.05, seed=2)
    inst, _ = make_instance(spec)
    mu = mu_rule(spec.design_kind, inst.p, inst.delta)
    config = AdmConfig(mu=mu, tol=tol_rule(spec.design_kind))
    _, _, report = solve(inst, config)
    assert report.outer_iterations > 0
    assert sorted(calls) == sorted(CALLED_TARGETS)
