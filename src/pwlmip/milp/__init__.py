"""Exact mixed-integer linear solving: models, search, and LP-format export."""

from .branch_bound import (
    DEFAULT_NODE_LIMIT,
    maximize,
    resolve_node_limit,
    solve_feasibility,
)
from .lpformat import export_lp
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
    "MilpModel",
    "MilpVariable",
    "ResourceExhausted",
    "SolveResult",
    "SolveStats",
    "SolverInternalError",
    "VarKind",
    "export_lp",
    "maximize",
    "resolve_node_limit",
    "solve_feasibility",
]
