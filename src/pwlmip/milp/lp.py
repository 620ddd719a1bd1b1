"""Exact rational LP feasibility via phase-1 simplex on an integer tableau.

The caller hands over <=-rows and per-variable bounds; this module shifts or
splits variables to the nonnegative orthant, adds slacks and artificials, and
runs the Bland-rule pivot kernel.  Feasibility holds iff the phase-1 optimum
is zero, in which case the found vertex is mapped back to original variables.

Tableau rows are built as Python ints over a positive per-row denominator,
the layout :func:`pwlmip._kernel.phase1` pivots on: a rational row is scaled
by the least common multiple of its denominators and that multiple is stored
as the row's denominator.  Rows from the lowering step are already integer,
so their denominator is 1.  Fractions appear only in the returned point.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .. import _kernel
from ..rationals import ZERO


def solve_lp_feasibility(rows, lowers, uppers):
    """Find any exact point satisfying all rows and bounds.

    rows: iterable of (coeffs, rhs) with coeffs (index, Fraction) pairs.
    lowers/uppers: per-variable bounds, each entry a Fraction or None.
    Returns (feasible, point, pivots); point is a list of Fractions.
    """
    n = len(lowers)

    # Column layout: one shifted column per bounded-below variable, a
    # positive/negative pair per free variable.
    col_of = []  # per variable: ("shift", col) or ("split", pos_col, neg_col)
    ncols = 0
    for i in range(n):
        if lowers[i] is not None:
            col_of.append(("shift", ncols))
            ncols += 1
        else:
            col_of.append(("split", ncols, ncols + 1))
            ncols += 2

    int_rows = []  # (ncols integer coefficients, integer rhs, denominator)

    def add_row(coeffs, rhs):
        # The shifted row reads sum(c * col) <= rhs - sum(c * lower); its
        # denominator is a multiple of every c, c * lower and rhs denominator.
        den = rhs.denominator
        for i, c in coeffs:
            if c:
                d = c.denominator
                if col_of[i][0] == "shift":
                    d *= lowers[i].denominator
                den = lcm(den, d)
        dense = [0] * ncols
        total = rhs.numerator * (den // rhs.denominator)
        for i, c in coeffs:
            if not c:
                continue
            k = c.numerator * (den // c.denominator)
            spec = col_of[i]
            if spec[0] == "shift":
                dense[spec[1]] += k
                lo = lowers[i]
                total -= k * lo.numerator // lo.denominator
            else:
                dense[spec[1]] += k
                dense[spec[2]] -= k
        int_rows.append((dense, total, den))

    for coeffs, rhs in rows:
        add_row(coeffs, rhs)
    for i in range(n):
        if uppers[i] is not None:
            add_row(((i, 1),), uppers[i])

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
