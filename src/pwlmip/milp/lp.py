"""Exact rational LP feasibility via phase-1 simplex on an integer tableau.

The caller hands over <=-rows and per-variable bounds; this module shifts or
splits variables to the nonnegative orthant, adds slacks and artificials, and
runs the Bland-rule pivot kernel.  It is the one place in the stack that
handles variables that may go below zero or are unbounded below: the layers
above pass every bound through as it is.  Feasibility holds iff the phase-1
optimum is zero, in which case the found vertex is mapped back to original
variables.

Tableau rows are built as Python ints over a positive per-row denominator,
the layout :func:`pwlmip._kernel.phase1` pivots on: a rational row is scaled
by the least common multiple of its denominators and that multiple is stored
as the row's denominator.  Rows from the lowering step are already integer,
so their denominator is 1.  Fractions appear only in the returned point.

Turning Fraction rows into integer rows is the same work at every node of a
branch-and-bound search, because branching moves only bounds.  A search
therefore compiles its rows once (:class:`CompiledRows`) and each call only
shifts the right-hand sides by its lower bounds and appends its bound rows;
the tableau is entry for entry the one a direct build would give.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .. import _kernel
from ..rationals import ZERO


class CompiledRows:
    """Rows ``sum(c * x) <= rhs`` turned into integer tableau rows once.

    Holds the column layout (one shifted column per bounded-below variable,
    a positive/negative pair per free variable) and, per row, the integer
    coefficients over the row's denominator, the integer right-hand side,
    and the shift terms ``(variable, coefficient, coefficient denominator)``
    that subtract ``c * lower`` for each shifted column.  A search compiles
    its model rows once; each node then only shifts the right-hand sides by
    its own lower bounds (see :func:`solve_lp_feasibility`).  The layout
    depends only on which lower bounds are None, so the compiled rows serve
    every call whose lower bounds are None in the same places.
    """

    __slots__ = ("free", "col_of", "ncols", "rows")

    def __init__(self, rows, lowers):
        self.free = [lo is None for lo in lowers]
        col_of = []  # per variable: ("shift", col) or ("split", pos, neg)
        ncols = 0
        for free in self.free:
            if free:
                col_of.append(("split", ncols, ncols + 1))
                ncols += 2
            else:
                col_of.append(("shift", ncols))
                ncols += 1
        self.col_of = col_of
        self.ncols = ncols
        self.rows = []  # (dense, rhs, denominator, shifts)
        for coeffs, rhs in rows:
            den = rhs.denominator
            for _, c in coeffs:
                den = lcm(den, c.denominator)
            dense = [0] * ncols
            shifts = []
            for i, c in coeffs:
                if not c:
                    continue
                k = c.numerator * (den // c.denominator)
                spec = col_of[i]
                dense[spec[1]] += k
                if spec[0] == "shift":
                    shifts.append((i, k, c.denominator))
                else:
                    dense[spec[2]] -= k
            total = rhs.numerator * (den // rhs.denominator)
            self.rows.append((dense, total, den, tuple(shifts)))


def solve_lp_feasibility(rows, lowers, uppers):
    """Find any exact point satisfying all rows and bounds.

    rows: a :class:`CompiledRows`, or an iterable of (coeffs, rhs) with
    coeffs (index, Fraction) pairs, which is compiled on the spot.
    lowers/uppers: per-variable bounds, each entry a Fraction or None.
    Returns (feasible, point, pivots); point is a list of Fractions.
    """
    if not isinstance(rows, CompiledRows):
        rows = CompiledRows(rows, lowers)
    elif [lo is None for lo in lowers] != rows.free:
        raise ValueError("lower bounds do not match the compiled column layout")
    n = len(lowers)
    col_of = rows.col_of
    ncols = rows.ncols

    # Each row as (integer coefficients, integer rhs, denominator).  A shifted
    # row reads sum(c * col) <= rhs - sum(c * lower); a rational lower bound
    # can raise the row's denominator.
    int_rows = []
    for dense, total, den, shifts in rows.rows:
        node_den = den
        for i, _, cden in shifts:
            lo_den = lowers[i].denominator
            if lo_den != 1:
                node_den = lcm(node_den, cden * lo_den)
        scale = node_den // den
        if scale != 1:
            dense = [x * scale for x in dense]
            total *= scale
            den = node_den
        for i, k, _ in shifts:
            lo = lowers[i]
            total -= k * scale * lo.numerator // lo.denominator
        int_rows.append((dense, total, den))
    for i in range(n):
        up = uppers[i]
        if up is None:
            continue
        spec = col_of[i]
        dense = [0] * ncols
        if spec[0] == "shift":
            lo = lowers[i]
            den = lcm(up.denominator, lo.denominator)
            dense[spec[1]] = den
            total = (up.numerator * (den // up.denominator)
                     - den * lo.numerator // lo.denominator)
        else:
            den = up.denominator
            dense[spec[1]] = den
            dense[spec[2]] = -den
            total = up.numerator
        int_rows.append((dense, total, den))

    m = len(int_rows)
    # Tableau columns: structural | slacks | artificials | rhs | denominator.
    n_art = sum(1 for _, rhs, _ in int_rows if rhs < 0)
    pad = [0] * (m + n_art)
    tableau = []
    basis = []
    art_rows = []
    art_next = ncols + m
    for k, (dense, rhs, den) in enumerate(int_rows):
        if rhs < 0:
            row = [-c for c in dense] + pad + [-rhs, den]
            row[ncols + k] = -den
            row[art_next] = den
            basis.append(art_next)
            art_rows.append(row)
            art_next += 1
        else:
            row = dense + pad + [rhs, den]
            row[ncols + k] = den
            basis.append(ncols + k)
        tableau.append(row)

    if not art_rows:
        # The all-zeros point (all structural columns at 0) is feasible.
        point = _point_from_columns(col_of, lowers, {}, n)
        return True, point, 0

    # Phase-1 objective: minimize the artificial sum.  Price out the basic
    # artificials so the objective row starts consistent with the basis.
    obj_den = lcm(*(row[-1] for row in art_rows))
    scaled = ([x * (obj_den // row[-1]) for x in row[:-1]] for row in art_rows)
    obj = [-sum(col) for col in zip(*scaled)]
    obj.append(obj_den)
    for k in range(m):
        if basis[k] >= ncols + m:
            obj[basis[k]] = 0
    tableau.append(obj)

    width = ncols + m + n_art
    pivots = _kernel.phase1(tableau, basis, m, width)

    if tableau[m][width]:
        return False, None, pivots

    values = {}
    for k in range(m):
        if basis[k] < ncols:
            row = tableau[k]
            values[basis[k]] = Fraction(row[width], row[width + 1])
    point = _point_from_columns(col_of, lowers, values, n)
    return True, point, pivots


def _point_from_columns(col_of, lowers, values, n):
    point = []
    for i in range(n):
        spec = col_of[i]
        if spec[0] == "shift":
            point.append(values.get(spec[1], ZERO) + lowers[i])
        else:
            point.append(values.get(spec[1], ZERO) - values.get(spec[2], ZERO))
    return point
