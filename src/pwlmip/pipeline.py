"""End-to-end solving of piecewise-linear models.

Each solve is lower (which normalizes) -> search -> lift, kept in one place
for the covering, approximation, and election layers as well as the CLI.
Every answer is re-checked against the caller's own model.  Both optimizers
maximize a linear form over the lowered model through :func:`_maximize`,
which decides the threshold grid: over integer variables it searches a
multiple of the form, so that ``best`` is exact.  :func:`milp.maximize
<pwlmip.milp.maximize>` works out the threshold bracket from the bounds.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import milp
from .emip import EmipModel
from .milp.model import SolveResult, VarKind
from .rationals import exact
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


def _maximize(model, lowered, form, reads, fns=(), t_lo=None,
              node_limit=None) -> SolveResult:
    """:func:`milp.maximize <pwlmip.milp.maximize>` of the lowered linear
    ``form`` over ``lowered``, exact over integer variables.

    ``reads`` are the variables of ``model`` that the form comes from and
    ``fns`` the functions of its terms.  When every one of those variables
    is integer, the form takes only multiples of 1/D at the feasible points
    (:func:`_value_denominator`), so the search runs on D times the form and
    ``best`` is the exact maximum; otherwise it searches integer thresholds,
    and ``best`` is the largest integer at most the maximum.
    """
    scale = 1
    if all(model.variables[i].kind is VarKind.INTEGER for i in reads):
        scale = _value_denominator(form, fns)
    result = milp.maximize(lowered, [(i, c * scale) for i, c in form],
                           None if t_lo is None else t_lo * scale, node_limit)
    if result.best is not None:
        result.best = exact(Fraction(result.best, scale))
    return result


def maximize_emip(model: EmipModel, node_limit=None) -> SolveResult:
    """Best value of the model's linear objective.

    Finds the largest T with {model, objective >= T} feasible (for a "min"
    objective: the smallest T with objective <= T, via negation).  ``best``
    is the exact optimum when every variable in the objective is integer,
    and otherwise the optimum rounded to an integer toward the worse side.
    The threshold bracket comes from the variables' bounds, which must be
    finite on the side the objective reads.
    """
    if model.objective is None:
        raise ValueError("model has no objective")
    sign = 1 if model.objective.sense == "max" else -1
    form = [(i, sign * c) for i, c in model.objective.coeffs]
    lowered, lmap = lower(model)
    result = _maximize(model, lowered, form, [i for i, c in form if c],
                       node_limit=node_limit)
    return _lift(model, lmap, result, sign)


def _value_denominator(coeffs, fns):
    """A D such that, at integer source points, the lowered form ``coeffs``
    (through the breakpoint columns at z_l = max(0, x - rho_l) and the
    bound columns at f(x)) takes only multiples of 1/D; ``fns`` are the
    functions of its terms.  Each f(x) is d_0 x + sum_l (x - rho_l) *
    (d_l - d_{l-1}) over the breakpoints below x."""
    dens = {c.denominator for _, c in coeffs}
    for fn in fns:
        slopes = fn.slopes
        dens.update(d.denominator for d in slopes)
        dens.update((rho * (hi - lo)).denominator
                    for rho, lo, hi in zip(fn.breakpoints, slopes, slopes[1:]))
    return lcm(*dens)


def minimize_budget(model: EmipModel, constraint: int, node_limit=None) -> SolveResult:
    """Minimize the left-hand side of a budget-style constraint, as written.

    The constraint's right side must be empty.  Its lowered form reads a
    non-linear term that no other row uses as d_0 on x and d_l - d_{l-1} on
    each breakpoint column z_l, and a shared one through its bound column
    w; at any optimum both come to the exact function value.  The
    constants that normalization moved into b are added back.  When every
    variable of the constraint is integer, ``best`` is the exact minimum:
    f with breakpoint 1 and slopes 1/2, 3/2 over an integer x in [1, 3]
    gives 1/2.  With a continuous variable ``best`` is exact when the
    minimum of the form is an integer and otherwise high by less than 1.
    No point within the budget: infeasible.
    """
    cons = model.constraints[constraint]
    if cons.rhs:
        raise ValueError("constraint %d has a right-hand side" % constraint)
    lowered, lmap = lower(model)
    coeffs, b = lmap.forms[constraint]
    fns = [term.fn for (j, _, _), term in lmap.terms if j == constraint]
    result = _maximize(model, lowered, [(i, -c) for i, c in coeffs],
                       [i for i, _ in cons.lhs], fns, -b, node_limit)
    return _lift(model, lmap, result, -1, cons.b - b)
