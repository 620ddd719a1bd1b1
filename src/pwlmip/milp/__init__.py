"""Exact mixed-integer linear solving: models, search, and LP-format I/O."""

from .branch_bound import (
    DEFAULT_NODE_LIMIT,
    maximize,
    resolve_node_limit,
    solve_feasibility,
)
from .lpformat import LpParseError, export_lp, parse_lp
from .model import (
    MilpModel,
    MilpVariable,
    ResourceExhausted,
    SolveResult,
    SolveStats,
    SolverInternalError,
    VarKind,
)

__all__ = [
    "DEFAULT_NODE_LIMIT",
    "LpParseError",
    "MilpModel",
    "MilpVariable",
    "ResourceExhausted",
    "SolveResult",
    "SolveStats",
    "SolverInternalError",
    "VarKind",
    "export_lp",
    "maximize",
    "parse_lp",
    "resolve_node_limit",
    "solve_feasibility",
]
