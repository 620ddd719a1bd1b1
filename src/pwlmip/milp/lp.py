"""Exact rational LP feasibility via phase-1 simplex on an integer tableau.

The caller hands over <=-rows and per-variable bounds; this module shifts or
splits variables to the nonnegative orthant, adds slacks and artificials, and
runs the Bland-rule pivot kernel.  It is the one place in the stack that
handles variables that may go below zero or are unbounded below: the layers
above pass every bound through as it is.  Feasibility holds iff the phase-1
optimum is zero, in which case the found vertex is mapped back to original
variables.

Tableau rows are Python ints over a positive per-row denominator, the layout
:func:`pwlmip._kernel.phase1` pivots on, and model rows arrive in that form
(see :mod:`pwlmip.milp.model`).  A branch-and-bound search moves only the
bounds of its integer variables, and keeps them finite ints.  So a search
compiles its rows once (:class:`CompiledRows`): the shifts and upper-bound
rows of the variables whose bounds never move are folded in there, and a
call only shifts right-hand sides by integer amounts.  The tableau is entry
for entry the one a direct build from Fraction rows and bounds would give.
A vertex value is an int when its row divides evenly and a Fraction
otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from .. import _kernel
from .model import SolveStats, integer_row


class CompiledRows:
    """Rows (integer or rational, as :class:`MilpModel` takes them) and the
    upper bounds after them, in variable order, as integer tableau rows.

    Every call supplies finite int bounds for the ``moving`` variables
    (default: none); each gets one shifted column, and one without finite
    bounds here is rejected.  The other variables' bounds (None, int or
    Fraction) are fixed here: such a variable gets one shifted column, or a
    positive/negative pair if its lower bound is None.
    """

    __slots__ = ("ncols", "dense", "neg", "totals", "dens", "rhs", "scales",
                 "touch", "upper_row", "plan")

    def __init__(self, rows, lowers, uppers=None, moving=()):
        n = len(lowers)
        uppers = uppers or [None] * n
        pos = {i: j for j, i in enumerate(moving)}
        for i in moving:
            if lowers[i] is None or uppers[i] is None:
                raise ValueError("moving variable %d needs finite bounds" % i)
        rows = [row if len(row) == 3 else integer_row(*row, n) for row in rows]
        self.rhs = [rhs for _, rhs, _ in rows]
        col_of = list(accumulate((1 if lo is not None else 2 for lo in lowers),
                                 initial=0))
        ncols = self.ncols = col_of.pop()

        # x <= up: a moving variable's row gets its upper bound at each call.
        self.upper_row = [0] * len(moving)
        for i in range(n):
            if i in pos:
                self.upper_row[pos[i]] = len(rows)
                rows.append((((i, 1),), 0, 1))
            elif uppers[i] is not None:
                rows.append(integer_row(((i, 1),), uppers[i], n))

        # A fixed rational lower bound raises the denominator of the rows it
        # shifts; a moving shift is kept as (row, coefficient) for each call.
        self.dense, self.neg, self.totals = [], [], []
        self.dens, self.scales = [], []
        self.touch = [[] for _ in moving]
        for r, (coeffs, rhs, den) in enumerate(rows):
            fixed = [(i, k, lowers[i]) for i, k in coeffs
                     if k and i not in pos and lowers[i] is not None]
            node_den = lcm(den, *(den // gcd(k, den) * lo.denominator
                                  for _, k, lo in fixed))
            scale = node_den // den
            dense = [0] * ncols
            for i, k in coeffs:
                dense[col_of[i]] += k * scale
                if lowers[i] is None:
                    dense[col_of[i] + 1] -= k * scale
                elif k and i in pos:
                    self.touch[pos[i]].append((r, k * scale))
            total = rhs * scale
            for _, k, lo in fixed:
                total -= k * scale * lo.numerator // lo.denominator
            self.dense.append(dense)
            self.neg.append([-x for x in dense])
            self.totals.append(total)
            self.dens.append(node_den)
            self.scales.append(scale)

        # How a vertex maps back, per variable: (column, 0, fixed lower),
        # (column, 1, moving position) or (column, 2, negative column).
        self.plan = [
            (c, 2, c + 1) if lo is None else (c, 1, pos[i]) if i in pos
            else (c, 0, lo.numerator if lo.denominator == 1 else lo)
            for i, (c, lo) in enumerate(zip(col_of, lowers))
        ]

    def set_rhs(self, r, rhs):
        """Give model row ``r`` a new right-hand side over its own denominator."""
        self.totals[r] += self.scales[r] * (rhs - self.rhs[r])
        self.rhs[r] = rhs

    def totals_at(self, lowers, uppers):
        """Right-hand sides at these int bounds of the moving variables."""
        totals = self.totals[:]
        for j, lo in enumerate(lowers):
            for r, k in self.touch[j] if lo else ():
                totals[r] -= k * lo
            totals[self.upper_row[j]] += uppers[j]
        return totals


def solve_lp_feasibility(rows, lowers, uppers, stats=None):
    """Find any exact point satisfying all rows and bounds.

    rows: a :class:`CompiledRows`, with lowers/uppers the finite int bounds
    of its moving variables; or an iterable of rows as :class:`CompiledRows`
    takes them, with lowers/uppers the bounds of every variable, each None
    (unbounded), an int or a Fraction.  ``stats``, a
    :class:`~pwlmip.milp.model.SolveStats`, counts the call, its pivots, an
    infeasible verdict and the tableau size.  Returns (feasible, point,
    pivots); point holds an int per integral value and a Fraction otherwise.
    """
    if not isinstance(rows, CompiledRows):
        rows = CompiledRows(rows, lowers, uppers)
        lowers = uppers = ()
    totals = rows.totals_at(lowers, uppers)
    stats = SolveStats() if stats is None else stats
    stats.lp_calls += 1
    ncols = rows.ncols
    m = len(totals)
    art_rows = [k for k in range(m) if totals[k] < 0]
    if not art_rows:
        # The all-zeros point (all structural columns at 0) is feasible.
        return True, _point(rows.plan, lowers, [0] * ncols), 0

    # Tableau columns: structural | slacks | artificials | rhs | denominator.
    # An artificial row enters negated.  The phase-1 objective (minimize the
    # artificial sum, priced out against the basic artificials) is the sum
    # of the artificial rows' structural parts and right-hand sides over
    # their common denominator, with that denominator in their slack columns.
    dense, neg, dens = rows.dense, rows.neg, rows.dens
    n_art = len(art_rows)
    width = ncols + m + n_art
    pad = [0] * (m + n_art + 2)
    tableau = []
    basis = []
    art = ncols + m
    for k in range(m):
        total, den = totals[k], dens[k]
        if total < 0:
            row = neg[k] + pad
            row[ncols + k] = -den
            row[art] = den
            row[width] = -total
            basis.append(art)
            art += 1
        else:
            row = dense[k] + pad
            row[ncols + k] = den
            row[width] = total
            basis.append(ncols + k)
        row[width + 1] = den
        tableau.append(row)
    obj_den = lcm(*(dens[k] for k in art_rows))
    scaled = [dense[k] if dens[k] == obj_den
              else [x * (obj_den // dens[k]) for x in dense[k]] for k in art_rows]
    obj = list(map(sum, zip(*scaled))) + pad
    for k in art_rows:
        obj[ncols + k] = obj_den
    obj[width] = sum(totals[k] * (obj_den // dens[k]) for k in art_rows)
    obj[width + 1] = obj_den
    tableau.append(obj)

    stats.note_tableau(m, width)
    pivots = _kernel.phase1(tableau, basis, m, width)
    stats.pivots += pivots
    if tableau[m][width]:
        stats.infeasible_lps += 1
        return False, None, pivots

    values = [0] * ncols
    for k in range(m):
        if basis[k] < ncols:
            num, den = tableau[k][width], tableau[k][width + 1]
            q, rem = divmod(num, den)
            values[basis[k]] = Fraction(num, den) if rem else q
    return True, _point(rows.plan, lowers, values), pivots


def _point(plan, lowers, values):
    point = []
    for col, kind, arg in plan:
        x = values[col]
        if kind == 2:
            x -= values[arg]
        elif kind == 1:
            x += lowers[arg]
        elif arg:
            x += arg
        point.append(x)
    return point
