"""End-to-end solving of piecewise-linear models.

Chains normalize -> lower -> branch and bound -> witness lift, keeping the
plumbing (witness verification) in one place for the covering, approximation,
and election layers as well as the CLI.
"""

from __future__ import annotations

import math

from . import milp
from .emip import EmipModel, normalize
from .milp.model import SolveResult
from .reduction import lower, witness_lift


def _lift(normalized, lmap, result, sign=1) -> SolveResult:
    """A solve of the lowered model in ``normalized``'s variable indices,
    its ``best`` multiplied by ``sign``."""
    if not result.feasible:
        return result
    best = None if result.best is None else sign * result.best
    return SolveResult(True, witness_lift(normalized, lmap, result.assignment),
                       result.stats, best)


def solve_emip(model: EmipModel, node_limit=None) -> SolveResult:
    """Feasibility for an extended model; the witness is exact and verified."""
    normalized = normalize(model)
    lowered, lmap = lower(normalized)
    return _lift(normalized, lmap, milp.solve_feasibility(lowered, node_limit))


def maximize_emip(model: EmipModel, t_lo=None, t_hi=None, node_limit=None) -> SolveResult:
    """Best integer threshold of the model's linear objective.

    Finds the largest integer T with {model, objective >= T} feasible (for a
    "min" objective: the smallest T with objective <= T, via negation).  The
    bracket [t_lo, t_hi] must contain the optimum; when omitted it is derived
    from the variable bounds, which therefore must be finite on every
    objective variable.
    """
    if model.objective is None:
        raise ValueError("model has no objective")
    normalized = normalize(model)
    lowered, lmap = lower(normalized)
    sense = normalized.objective.sense
    coeffs = dict(normalized.objective.coeffs)
    if sense == "min":
        coeffs = {i: -c for i, c in coeffs.items()}

    if t_lo is None or t_hi is None:
        lo, hi = objective_bracket(normalized, coeffs)
        t_lo = lo if t_lo is None else t_lo
        t_hi = hi if t_hi is None else t_hi

    result = milp.maximize(lowered, coeffs, t_lo, t_hi, node_limit)
    return _lift(normalized, lmap, result, 1 if sense == "max" else -1)


def objective_bracket(model: EmipModel, coeffs):
    """A sound threshold bracket from variable bounds (must be finite)."""
    lo = hi = 0
    for i, c in coeffs.items():
        if c == 0:
            continue
        v = model.variables[i]
        if v.upper is None:
            raise ValueError(
                "objective variable %r needs a finite upper bound to derive a "
                "threshold bracket" % v.name
            )
        ends = (c * v.lower, c * v.upper)
        lo += min(ends)
        hi += max(ends)
    return math.floor(lo), math.ceil(hi)


def minimize_budget(model: EmipModel, constraint: int, node_limit=None) -> SolveResult:
    """Minimize the left-hand side of a budget-style constraint.

    The constraint's left side must consist of convex terms over variables
    with lower bound 0; its right side must be empty.  In the lowered model
    each non-linear term is represented by its bounding variable w (pushed
    down to the exact function value at any optimum) and each linear term by
    the variable itself, so the total is a linear expression that
    :func:`~pwlmip.milp.maximize` optimizes.  A feasible result's assignment
    is in the original model's indices and its ``best`` is the exact
    minimum.
    """
    normalized = normalize(model)
    lowered, lmap = lower(normalized)
    term_index = lmap.term_index()
    coeffs = {}
    for idx, fn in normalized.constraints[constraint].lhs:
        if fn.is_linear:
            coeffs[idx] = coeffs.get(idx, 0) - fn.slopes[0]
        else:
            term = term_index[(constraint, "lhs", idx)]
            coeffs[term.bound_var] = coeffs.get(term.bound_var, 0) - 1
    budget = normalized.constraints[constraint].b
    result = milp.maximize(lowered, coeffs, -budget, 0, node_limit)
    return _lift(normalized, lmap, result, -1)
