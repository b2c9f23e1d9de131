"""Dantzig selector solver: alternating direction method with a nonmonotone
spectral-gradient inner solver, plus simulation and benchmark tooling.

The names below are the quickstart surface, and they check their input; the
building blocks (the design operator, the inner solver's steps, the outer
steps) stay importable from their submodules.  Those take the arrays a solve
has already checked and do not check them again.
"""

__version__ = "0.1.0"

from .core import Instance
from .adm import AdmConfig, RunReport, solve
from .datagen import GenSpec, default_delta, make_instance, mu_rule, tol_rule
from .evaluation import EvalResult, FeasibilityReport, evaluate_solution, feasibility_report

__all__ = [
    "AdmConfig",
    "EvalResult",
    "FeasibilityReport",
    "GenSpec",
    "Instance",
    "RunReport",
    "default_delta",
    "evaluate_solution",
    "feasibility_report",
    "make_instance",
    "mu_rule",
    "solve",
    "tol_rule",
]
