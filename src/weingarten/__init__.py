"""Radial graphs of prescribed Weingarten curvature in the three space forms.

Subpackages cover the scalar space-form functions, coordinate charts on the
sphere with finite-difference calculus, pointwise curvature geometry, the
analytic linearization, and the continuation solver with its CLI.
"""

from .continuity import (
    HomotopyConfig,
    ProblemSpec,
    SolveReport,
    diagnostics_monitor,
    newton_solve,
    solve_problem,
    verify_subsolution,
)
from .errors import (
    AdmissibilityError,
    AssemblyError,
    DomainRangeError,
    EvaluationError,
    ParseError,
    SemanticError,
)
from .expressions import parse_expression
from .grids import GraphField, build_cap_domain, build_from_mask, load_grid, save_grid
from .problems import build_problem, load_problem, parse_problem
from .spaceform import SpaceFormParams, VariableRanges, ranges

__all__ = [
    "AdmissibilityError",
    "AssemblyError",
    "DomainRangeError",
    "EvaluationError",
    "GraphField",
    "HomotopyConfig",
    "ParseError",
    "ProblemSpec",
    "SemanticError",
    "SolveReport",
    "SpaceFormParams",
    "VariableRanges",
    "build_cap_domain",
    "build_from_mask",
    "build_problem",
    "diagnostics_monitor",
    "load_grid",
    "load_problem",
    "newton_solve",
    "parse_expression",
    "parse_problem",
    "ranges",
    "save_grid",
    "solve_problem",
    "verify_subsolution",
]

__version__ = "0.1.0"
