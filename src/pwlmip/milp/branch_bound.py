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

from .lp import CompiledRows, solve_lp_feasibility
from .model import (
    MilpModel,
    ResourceExhausted,
    SolveResult,
    SolveStats,
    SolverInternalError,
    integer_row,
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


def within_budget(limit, stats, solve, *args, **kwargs):
    """``solve(*args, **kwargs)`` on the nodes ``stats`` has left of ``limit``.

    The solve's stats are absorbed into ``stats``; :class:`ResourceExhausted`
    is raised with the nodes of every solve so far once ``limit`` is reached.
    """
    left = limit - stats.nodes
    if left <= 0:
        raise ResourceExhausted(stats.nodes, limit)
    try:
        result = solve(*args, node_limit=left, **kwargs)
    except ResourceExhausted as exc:
        raise ResourceExhausted(stats.nodes + exc.nodes, limit) from None
    stats.absorb(result.stats)
    return result


def _compile(model: MilpModel):
    """What every node of a search shares: (rows, lowers, uppers, int_idx).

    The integer variables' bounds are rounded inward to ints, which is the
    identity on integral bounds; every other bound is fixed for the search
    and folded into the compiled rows, which are None if the box is empty.
    """
    int_idx = model.integer_indices()
    lowers = [v.lower for v in model.variables]
    uppers = [v.upper for v in model.variables]
    for i in int_idx:
        if lowers[i] is None or uppers[i] is None:
            raise ValueError(
                "integer variable %r needs finite bounds for the search to "
                "terminate" % model.variables[i].name
            )
        lowers[i], uppers[i] = math.ceil(lowers[i]), math.floor(uppers[i])
    empty = any(l is not None and u is not None and l > u
                for l, u in zip(lowers, uppers))
    rows = None if empty else CompiledRows(model.rows, lowers, uppers, int_idx)
    # Node bounds are lists, not tuples: CPython keeps freed tuples on
    # per-length free lists until a full garbage collection, so a deep search
    # that unwinds would leave them holding memory for the rest of the process.
    return (rows, [lowers[i] for i in int_idx], [uppers[i] for i in int_idx],
            int_idx)


class _Probe(MilpModel):
    """A probe of :func:`maximize`: the model, its threshold row, and the
    search compiled once for every probe, the threshold rhs set for this one."""

    __slots__ = ("search",)

    def __init__(self, model, row, search):
        object.__setattr__(self, "variables", model.variables)
        object.__setattr__(self, "rows", model.rows + (row,))
        object.__setattr__(self, "search", search)


def solve_feasibility(model: MilpModel, node_limit=None) -> SolveResult:
    """Exact feasibility: a witness assignment or a proof of emptiness."""
    limit = resolve_node_limit(node_limit)
    search = model.search if isinstance(model, _Probe) else _compile(model)
    rows, lowers, uppers, int_idx = search
    stats = SolveStats()
    stack = [(lowers, uppers, 0)]
    while stack:
        if stats.nodes >= limit:
            raise ResourceExhausted(stats.nodes, limit)
        stats.nodes += 1
        lo, up, depth = stack.pop()
        stats.max_depth = max(stats.max_depth, depth)
        if rows is None:  # the rounded root box is empty
            continue
        feasible, point, _ = solve_lp_feasibility(rows, lo, up, stats)
        if not feasible:
            continue

        # Branch on the most fractional value p/q (ties to the lowest index):
        # its distance to an integer is min(r, q - r)/q with r = p mod q.
        branch, best, best_q = -1, 0, 1
        for j, i in enumerate(int_idx):
            q = point[i].denominator
            r = point[i].numerator % q
            score = min(r, q - r)
            if score * best_q > best * q:
                branch, best, best_q = j, score, q
        if branch < 0:
            problems = model.check_assignment(point)
            if problems:
                raise SolverInternalError(
                    "feasible answer failed exact re-check: %s" % "; ".join(problems)
                )
            assignment = {i: Fraction(x) for i, x in enumerate(point)}
            return SolveResult(True, assignment, stats)

        # x <= floor(v) is explored first, then x >= floor(v) + 1; with int
        # bounds around v, neither box is empty.
        floor = point[int_idx[branch]].numerator // best_q
        left_up, right_lo = up[:], lo[:]
        left_up[branch], right_lo[branch] = floor, floor + 1
        stack.append((right_lo, up, depth + 1))
        stack.append((lo, left_up, depth + 1))
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
    threshold, _, den = integer_row(
        ((i, -Fraction(c)) for i, c in coeffs), 0, model.n_vars
    )
    lo = math.ceil(Fraction(t_lo))
    hi = math.floor(Fraction(t_hi))
    if lo > hi:
        raise ValueError("empty threshold bracket [%s, %s]" % (t_lo, t_hi))

    limit = resolve_node_limit(node_limit)
    stats = SolveStats()
    # One compile serves every probe: only the threshold row's rhs moves.
    probe_row = len(model.rows)
    search = _compile(_Probe(model, (threshold, 0, den), None))

    def solve_at(t):
        if search[0] is not None:
            search[0].set_rhs(probe_row, -t * den)
        sub = _Probe(model, (threshold, -t * den, den), search)
        result = within_budget(limit, stats, solve_feasibility, sub)
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
