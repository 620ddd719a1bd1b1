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
    ResourceExhausted,
    SolveResult,
    SolveStats,
    SolverInternalError,
    Variable,
    VarKind,
)

__all__ = [
    "DEFAULT_NODE_LIMIT",
    "MilpModel",
    "ResourceExhausted",
    "SolveResult",
    "SolveStats",
    "SolverInternalError",
    "VarKind",
    "Variable",
    "export_lp",
    "maximize",
    "resolve_node_limit",
    "solve_feasibility",
]
