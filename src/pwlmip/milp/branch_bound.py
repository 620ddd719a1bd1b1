"""Branch-and-bound feasibility search and threshold-based optimization.

Feasibility: depth-first branch and bound on the LP relaxation.  At each node
the exact LP either proves the box empty or returns a vertex; a fractional
integer variable (the most fractional one, ties to the lowest index) splits
the box into ``x <= floor(v)`` (explored first) and ``x >= floor(v)+1``.
Integer variables need finite bounds, so the tree is finite; Bland's rule
makes every answer deterministic.

Optimization: ``maximize`` binary-searches the largest integer T for which
the model stays feasible with the extra row ``objective >= T``, as in the
threshold trick that turns one optimization into about log(range) feasibility
solves.  The node limit counts the nodes of all of them together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from ..rationals import ZERO
from .lp import CompiledRows, solve_lp_feasibility
from .model import (
    MilpModel,
    ResourceExhausted,
    SolveResult,
    SolveStats,
    SolverInternalError,
)

DEFAULT_NODE_LIMIT = 10**6


def resolve_node_limit(node_limit=None) -> int:
    """Node budget: the argument, else the default."""
    if node_limit is None:
        return DEFAULT_NODE_LIMIT
    value = int(node_limit)
    if value <= 0:
        raise ValueError("node limit must be positive, got %d" % value)
    return value


def solve_feasibility(model: MilpModel, node_limit=None) -> SolveResult:
    """Exact feasibility: a witness assignment or a proof of emptiness."""
    limit = resolve_node_limit(node_limit)
    int_idx = model.integer_indices()
    for i in int_idx:
        v = model.variables[i]
        if v.lower is None or v.upper is None:
            raise ValueError(
                "integer variable %r needs finite bounds for the search to "
                "terminate" % v.name
            )

    stats = SolveStats()
    # Node bounds are lists, not tuples: CPython keeps freed tuples on
    # per-length free lists until a full garbage collection, so a deep search
    # that unwinds would leave them holding memory for the rest of the process.
    lowers = [v.lower for v in model.variables]
    uppers = [v.upper for v in model.variables]
    # Branching moves only finite bounds of integer variables, so the column
    # layout and the integer rows stay valid for every node of the search.
    rows = CompiledRows(model.rows, lowers)
    stack = [(lowers, uppers)]
    while stack:
        if stats.nodes >= limit:
            raise ResourceExhausted(stats.nodes, limit)
        stats.nodes += 1
        lo, up = stack.pop()
        if any(
            l is not None and u is not None and l > u for l, u in zip(lo, up)
        ):
            continue
        feasible, point, pivots = solve_lp_feasibility(rows, lo, up)
        stats.lp_calls += 1
        stats.pivots += pivots
        if not feasible:
            stats.infeasible_lps += 1
            continue

        branch_var = -1
        branch_score = ZERO
        for i in int_idx:
            v = point[i]
            frac = v - math.floor(v)
            if frac == 0:
                continue
            score = min(frac, 1 - frac)
            if score > branch_score:
                branch_score = score
                branch_var = i
        if branch_var < 0:
            assignment = {i: point[i] for i in range(model.n_vars)}
            problems = model.check_assignment(assignment)
            if problems:
                raise SolverInternalError(
                    "feasible answer failed exact re-check: %s" % "; ".join(problems)
                )
            return SolveResult(True, assignment, stats)

        v = point[branch_var]
        fl = Fraction(math.floor(v))
        left_up = list(up)
        left_up[branch_var] = (
            fl if up[branch_var] is None else min(up[branch_var], fl)
        )
        right_lo = list(lo)
        right_lo[branch_var] = (
            fl + 1 if lo[branch_var] is None else max(lo[branch_var], fl + 1)
        )
        stack.append((right_lo, up))
        stack.append((lo, left_up))
    return SolveResult(False, None, stats)


@dataclass
class MaximizeResult:
    feasible: bool
    best: int | None
    assignment: dict | None
    stats: SolveStats = field(default_factory=SolveStats)


def maximize(model: MilpModel, coeffs, t_lo, t_hi, node_limit=None) -> MaximizeResult:
    """Largest integer T in [t_lo, t_hi] with {model, sum(c*x) >= T} feasible.

    ``coeffs`` maps variable index to an exact coefficient.  The bracket must
    contain the optimum for the answer to be the true maximum; if the model is
    infeasible even at ceil(t_lo) the result reports infeasible.  The node
    limit bounds the whole call: the ~log2(range) inner solves share it, and
    :class:`ResourceExhausted` reports the nodes of all of them.
    """
    if isinstance(coeffs, dict):
        coeffs = coeffs.items()
    threshold = MilpModel.normalize_row(
        ((i, -Fraction(c)) for i, c in coeffs), 0, model.n_vars
    )[0]
    lo = math.ceil(Fraction(t_lo))
    hi = math.floor(Fraction(t_hi))
    if lo > hi:
        raise ValueError("empty threshold bracket [%s, %s]" % (t_lo, t_hi))

    limit = resolve_node_limit(node_limit)
    stats = SolveStats()

    def solve_at(t):
        left = limit - stats.nodes
        if left <= 0:
            raise ResourceExhausted(stats.nodes, limit)
        sub = model.with_rows(((threshold, Fraction(-t)),))
        try:
            result = solve_feasibility(sub, left)
        except ResourceExhausted as exc:
            raise ResourceExhausted(stats.nodes + exc.nodes, limit) from None
        stats.absorb(result.stats)
        stats.probes += 1
        return result

    base = solve_at(lo)
    if not base.feasible:
        return MaximizeResult(False, None, None, stats)
    best_assignment = base.assignment
    while lo < hi:
        mid = (lo + hi + 1) // 2
        step = solve_at(mid)
        if step.feasible:
            lo = mid
            best_assignment = step.assignment
        else:
            hi = mid - 1
    return MaximizeResult(True, lo, best_assignment, stats)
