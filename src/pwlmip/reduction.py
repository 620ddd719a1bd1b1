"""Lowering piecewise-linear constraints to plain mixed-integer linear rows.

:func:`lower` takes a model as written.  It normalizes it first
(:func:`pwlmip.emip.normalize`, which also validates it), so every
transformation has f(0) = 0 and its constant sits in b.  One block of
auxiliary continuous variables and rows stands for each (variable,
function, side) of the normalized model:

  convex f on x, breakpoints rho_1..rho_L, slopes d_0..d_L:
      z_l >= 0 (a bound),  z_l >= x - rho_l          (l = 1..L)
      F = x*d_0 + sum_l z_l*(d_l - d_{l-1})

  concave g on x:
      y_l >= 0 (a bound),  y_l >= x - rho_l
      G = x*d_0 + sum_l y_l*(d_l - d_{l-1})

Each constraint ``sum f_i(x_i) <= sum g_i(x_i) + b`` is then replaced by
its *lowered form*, with a linear term, which the normalized model holds
as its coefficient, kept on x itself.  A block that only
this constraint uses is inlined: the form holds F (or -G) itself, d_0 on x
and the slope steps on z_l.  A block that several constraints share, such
as a multiset-cover yield in every element row, gets a bound column w
(or u) and one link row ``F <= w`` (``u <= G``), and each form holds w
(or -u).  Because the convex slope steps are positive, F, and any feasible
w, dominates f(x) (z_l can always retreat to max(0, x - rho_l)), and
symmetrically G and u are forced under g(x); plugging in the witness
values z_l = max(0, x - rho_l), w = f(x), u = g(x) embeds every feasible
point of the source model.  So both forms project onto the source
variables exactly; the inlined one needs no column and no row for the
value.  The source variables pass through as they are, the model's own
:class:`~pwlmip.milp.model.Variable` objects first and in order, so the
integer dimension is unchanged; only the auxiliaries are new.  They are
named ``w_c<j>_<x>`` and ``z_c<j>_<x>_<l>`` (``u`` and ``y`` on the concave
side) after the row j that first uses them, with ``_`` appended while a
variable has the name.  Rows are scaled to integer coefficients.  A model
with integral data is all ints already (:mod:`pwlmip.rationals`), so its
rows are taken as their sorted pairs, with no scaling and no Fraction
made on the way; only a row with a Fraction goes through
:func:`~pwlmip.milp.model.integer_row`.

The rows are kept lean, which keeps the LP relaxation exactly as tight:

* ``z_l >= 0`` is the auxiliary's lower bound, not a row.  A w (u) is
  bounded below by the function's minimum over x's box.
* w, u, z and y get no upper bound.  Each enters its rows in one direction
  only: its own rows bound z_l and w from below and u from above, and every
  other row it enters is only eased by lowering z_l or w or raising u.  So
  from any LP-feasible point, setting z_l = max(0, x - rho_l), then
  w = f(x) and u = g(x), keeps every row satisfied, and these values lie
  within the exact ranges over x's box.  Upper bounds would cut off no
  value of x and only add a tableau row per auxiliary.
* A shared block is lowered once: ``w >= f(x)`` is the same constraint
  wherever w appears, so one copy serves them all.  Inlining it in every
  row instead would keep the LP as tight, but it made the heavy
  multiset-cover trees grow many times over.
* No row carries an explicit zero coefficient.
"""

from __future__ import annotations

from .emip import EmipModel, normalize
from .milp.model import (MilpModel, SolverInternalError, Variable, VarKind,
                         check_bounds, integer_row)
from .pwl import PwlFunction
from .records import Frozen


class LoweredTerm(Frozen):
    """Auxiliaries standing in for one transformation f(x_i) or g(x_i).

    ``var`` is the index of x_i, the same in the source and the lowered
    model; ``bound_var`` the index of w (convex side) or u (concave side),
    None for a block inlined in the one row that uses it; ``aux_vars`` the
    indices of z_l / y_l, one per breakpoint.
    """

    __slots__ = _fields = ("var", "bound_var", "aux_vars", "fn")

    def __init__(self, var: int, bound_var: int | None, aux_vars: tuple,
                 fn: PwlFunction):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "bound_var", bound_var)
        object.__setattr__(self, "aux_vars", aux_vars)
        object.__setattr__(self, "fn", fn)


class LoweringMap(Frozen):
    """Where every source variable, transformation and constraint landed.

    ``terms`` holds ((constraint_index, side, var_index), LoweredTerm)
    pairs, one per use; uses of the same (variable, function, side) share
    one LoweredTerm.  ``forms`` holds one (coeffs, b, row) per source
    constraint: its lowered form, the unscaled row sum(c * column) <= b
    over lowered columns, with b the normalized right-hand side, and the
    index of the lowered row that holds it, scaled.  It reads an inlined
    term through x and its z/y columns and a shared one through its w/u
    column.
    """

    __slots__ = _fields = ("terms", "forms")

    def __init__(self, terms: tuple, forms: tuple):
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "forms", forms)


def lower(model: EmipModel):
    """Normalize and lower a model; returns (MilpModel, LoweringMap).

    Raises :class:`pwlmip.emip.InvalidModelError` (a ValueError) on a model
    that fails validation.
    """
    model = normalize(model)
    variables = list(model.variables)
    rows = []
    term_map = []
    forms = []
    # (var index, function, sign) -> (LoweredTerm, the (column, coefficient)
    # pairs it adds to a row that uses it)
    blocks = {}
    names = {v.name for v in variables}

    def fresh(name):
        """``name``, or it with ``_`` appended until no variable has it."""
        while name in names:
            name += "_"
        names.add(name)
        return name

    # A block that one row uses is inlined there; one that several rows
    # share keeps its w/u column and link row.
    users = {}
    for j, cons in enumerate(model.constraints):
        for side, sign in ((cons.lhs, 1), (cons.rhs, -1)):
            for idx, term in side:
                if isinstance(term, PwlFunction):
                    users.setdefault((idx, term, sign), set()).add(j)

    def lower_term(j, idx, fn, sign):
        """Auxiliaries and rows for sign * fn(x_idx), first met in row j:
        the LoweredTerm and what it adds to the rows that use it."""
        src = model.variables[idx]
        shared = len(users[idx, fn, sign]) > 1
        if shared:
            fmin, _ = fn.range_on(src.lower, src.upper)
            prefix = "w" if sign > 0 else "u"
            bound_var = len(variables)
            variables.append(Variable(fresh("%s_c%d_%s" % (prefix, j, src.name)),
                                      VarKind.CONTINUOUS, fmin))
        aux_vars = []
        aux_prefix = "z" if sign > 0 else "y"
        for l, rho in enumerate(fn.breakpoints, start=1):
            aux = len(variables)
            name = fresh("%s_c%d_%s_%d" % (aux_prefix, j, src.name, l))
            variables.append(Variable(name, VarKind.CONTINUOUS))
            aux_vars.append(aux)
            # z_l >= x - rho_l, written as a <=-row (z_l >= 0 is its bound)
            rows.append((((idx, 1), (aux, -1)), rho))
        link = [(idx, sign * fn.slopes[0])] if fn.slopes[0] else []
        for aux, lo, hi in zip(aux_vars, fn.slopes, fn.slopes[1:]):
            link.append((aux, sign * (hi - lo)))
        if not shared:
            return LoweredTerm(idx, None, tuple(aux_vars), fn), link
        link.append((bound_var, -sign))
        rows.append((link, 0))
        return (LoweredTerm(idx, bound_var, tuple(aux_vars), fn),
                ((bound_var, sign),))

    for j, cons in enumerate(model.constraints):
        budget = {}
        for side_name, side, sign in (("lhs", cons.lhs, 1), ("rhs", cons.rhs, -1)):
            for idx, term in side:
                if not isinstance(term, PwlFunction):
                    budget[idx] = budget.get(idx, 0) + sign * term
                    continue
                key = (idx, term, sign)
                if key not in blocks:
                    blocks[key] = lower_term(j, idx, term, sign)
                lowered, adds = blocks[key]
                term_map.append(((j, side_name, idx), lowered))
                for i, c in adds:
                    budget[i] = budget.get(i, 0) + c
        # tuple() of a list: from a generator it grows the tuple by
        # reallocation, which measurably raised peak RSS over long runs
        form = (tuple([(i, c) for i, c in budget.items() if c != 0]), cons.b)
        forms.append((*form, len(rows)))
        rows.append(form)

    n = len(variables)
    milp = MilpModel(tuple(variables), tuple([
        (tuple(sorted(coeffs)), rhs)
        if type(rhs) is int and all(type(c) is int for _, c in coeffs)
        else integer_row(coeffs, rhs, n) for coeffs, rhs in rows]))
    return milp, LoweringMap(tuple(term_map), tuple(forms))


def witness_lift(model: EmipModel, assignment):
    """Restrict a lowered-model point to the source variables and verify it
    against ``model``, the model as it was passed to :func:`lower`.

    Raises :class:`~pwlmip.milp.model.SolverInternalError` if the
    restriction violates a bound, an integrality or a source constraint: a
    solver fault, which a correct lowering never triggers.  The values are
    exact, an int when integral (:mod:`pwlmip.rationals`), and are returned
    as they are.
    """
    point = {i: assignment[i] for i in range(len(model.variables))}
    problems = check_bounds(model.variables, point)
    problems += ["source constraint %d violated" % j
                 for j, cons in enumerate(model.constraints)
                 if not cons.holds(point)]
    if problems:
        raise SolverInternalError("lifted point failed exact re-check: %s"
                                  % "; ".join(problems))
    return point
