"""End-to-end solving of piecewise-linear models.

Chains lower (which normalizes) -> branch and bound -> witness lift, keeping
the plumbing in one place for the covering, approximation, and election
layers as well as the CLI.  Every answer is re-checked against the caller's
own model.  Both optimizers maximize a linear form over the lowered model
through one threshold search, set up by :func:`_maximize`.
"""

from __future__ import annotations

import math

from . import milp
from .emip import EmipModel
from .milp.model import SolveResult
from .reduction import lower, witness_lift


def _lift(model, lmap, result, sign=1, offset=0) -> SolveResult:
    """A solve of ``model``'s lowering in ``model``'s variable indices, its
    ``best`` mapped to ``sign * best + offset``."""
    if not result.feasible:
        return result
    best = None if result.best is None else sign * result.best + offset
    return SolveResult(True, witness_lift(model, lmap, result.assignment),
                       result.stats, best)


def solve_emip(model: EmipModel, node_limit=None) -> SolveResult:
    """Feasibility for an extended model; the witness is exact and verified."""
    lowered, lmap = lower(model)
    return _lift(model, lmap, milp.solve_feasibility(lowered, node_limit))


def _maximize(model, lowered, lmap, coeffs, t_lo, t_hi, node_limit, sign,
              offset=0) -> SolveResult:
    """The largest integer T in [t_lo, t_hi] with sum(c * column) >= T over
    ``lowered``, lifted to ``model`` with ``best`` = sign * T + offset.

    An end left None is derived by :func:`objective_bracket`.  A derived
    t_hi bounds the form over every point, so one below t_lo means that no
    point reaches t_lo: the result is infeasible.
    """
    if t_lo is None or t_hi is None:
        lo, hi = objective_bracket(lowered, coeffs)
        derived_hi = t_hi is None
        t_lo = lo if t_lo is None else t_lo
        t_hi = hi if t_hi is None else t_hi
        if t_lo is None or t_hi is None:
            raise ValueError("an infinite variable bound leaves the threshold "
                             "bracket open; give its end")
        if derived_hi and math.ceil(t_lo) > t_hi:
            return SolveResult(False, None)
    result = milp.maximize(lowered, coeffs, t_lo, t_hi, node_limit)
    return _lift(model, lmap, result, sign, offset)


def maximize_emip(model: EmipModel, t_lo=None, t_hi=None, node_limit=None) -> SolveResult:
    """Best integer threshold of the model's linear objective.

    Finds the largest integer T with {model, objective >= T} feasible (for a
    "min" objective: the smallest T with objective <= T, via negation).  The
    bracket [t_lo, t_hi] must contain the optimum; an end left out is
    derived from the variable bounds, which must then be finite on that side.
    """
    if model.objective is None:
        raise ValueError("model has no objective")
    sign = 1 if model.objective.sense == "max" else -1
    coeffs = {i: sign * c for i, c in model.objective.coeffs}
    lowered, lmap = lower(model)
    return _maximize(model, lowered, lmap, coeffs, t_lo, t_hi, node_limit, sign)


def objective_bracket(model, coeffs):
    """Integer ends (lo, hi) of sum(c * x_i) over the bounds of ``model``'s
    variables (None: unbounded), None for an infinite end."""
    lo = hi = 0
    for i, c in coeffs.items():
        if c == 0:
            continue
        v = model.variables[i]
        low, high = (v.lower, v.upper) if c > 0 else (v.upper, v.lower)
        lo = None if lo is None or low is None else lo + c * low
        hi = None if hi is None or high is None else hi + c * high
    return (None if lo is None else math.floor(lo),
            None if hi is None else math.ceil(hi))


def minimize_budget(model: EmipModel, constraint: int, node_limit=None) -> SolveResult:
    """Minimize the left-hand side of a budget-style constraint, as written.

    The constraint's right side must be empty.  Its lowered form reads each
    non-linear term through its bounding variable w (pushed down to the
    exact function value at any optimum); the constants that normalization
    moved into b are added back.  ``best`` is the exact minimum when it and
    those constants are integers (the search steps by integers; otherwise it
    is high by less than 1).  No point within the budget: infeasible.
    """
    cons = model.constraints[constraint]
    if cons.rhs:
        raise ValueError("constraint %d has a right-hand side" % constraint)
    lowered, lmap = lower(model)
    coeffs, b = lmap.forms[constraint]
    return _maximize(model, lowered, lmap, {i: -c for i, c in coeffs}, -b, None,
                     node_limit, -1, cons.b - b)
