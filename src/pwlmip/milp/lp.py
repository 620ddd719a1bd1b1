"""Exact rational LP by simplex on an integer tableau: two-phase, or dual
from the all-slack basis.

The caller hands over <=-rows and per-variable bounds; this module shifts or
splits variables to the nonnegative orthant, adds slacks and artificials, and
runs the Bland-rule pivot kernel.  It is the one place in the stack that
handles variables that may go below zero or are unbounded below: the layers
above pass every bound through as it is.  Feasibility holds iff the phase-1
optimum is zero.  A caller that names an objective row gets a phase 2 on the
same kernel: any artificial left basic at zero is pivoted out, the
artificial columns are dropped, and the objective, priced out against the
phase-1 basis, is minimized from there.  The vertex found is mapped back to
original variables.

A named objective row with no negative entry, and a positive one on every
moving column, skips phase 1 (the dual cold start; Koberstein, *The dual
simplex method*, 2005).  The all-slack basis is then dual feasible, so the
tableau is built with no artificial column, its rows keep their negative
right-hand sides, and the row goes in as the objective as it is, since no
column is basic to price out.  The kernel's dual phase takes it to the
optimum, and an infeasible verdict and its Farkas row are read as on a warm
start (below).  A minimum-cost cover's objective row is of that kind.  The
condition on the moving columns keeps the others on the two-phase start: a
moving column at cost 0 ties every dual ratio on its rows at zero, and
Bland's rule then breaks those ties by index, an unguided phase 1 on dense
coverage rows.

A search's integer (moving) variables keep their upper bounds out of the
tableau: each shifted column x' = x - lo carries the bound U = up - lo as a
column bound of the kernel, which stores a column at U complemented, as
``U - x'`` (``flipped``) and orders the columns for Bland's rule itself
(see :mod:`pwlmip._kernel`).  A vertex reads U for a complemented column.
Fixed finite upper bounds, of the variables whose bounds never move, stay
rows.

That is the cold path, from the all-slack basis.  The nodes of a search
share one constraint matrix, and only right-hand sides and column bounds
differ between them (the moving variables' bounds and the threshold row),
so an optimal tableau of one node is dual feasible for every other: with an
all-zero objective row in a feasibility search, and also when its dual
simplex ended infeasible.  A search therefore keeps one
:class:`LiveTableau`.  Its next node moves the stored right-hand sides and
bounds to its own (see :func:`_move_rhs` and :func:`_move_bounds`) and
hands the tableau to the kernel, whose dual phase re-optimizes it; a basic
variable left below 0 or above its bound is the verdict "infeasible", and
its row, which :func:`pwlmip._kernel.violated_row` finds, is the Farkas
ray.  A call starts cold only while the search holds no tableau: at its
first LP, and after a cold LP that ended infeasible, which leaves none.
A search's objective is bounded over the variables' bounds, so none of its
LPs ends unbounded; a direct call may.

Tableau rows are Python ints over a positive per-row denominator, the layout
:func:`pwlmip._kernel.phase1` pivots on.  Model rows arrive in ints (see
:mod:`pwlmip.milp.model`), and every tableau row starts over 1, with slack
and artificial entries 1.  A branch-and-bound search moves only the bounds
of its integer variables, and keeps them finite ints.  So a search compiles
its rows once (:class:`CompiledRows`): the shifts and upper-bound rows of
the variables whose bounds never move are folded in there, and a call only
shifts right-hand sides and column bounds by integer amounts.  The tableau
is entry for entry the one a direct build from Fraction rows and bounds
would give.  The kernel may leave a row out of lowest terms, so a vertex
value is read off with ``divmod``; it is an int when it is integral and a
Fraction otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from .. import _kernel
from ..rationals import exact
from .model import SolveStats, integer_row


class CompiledRows:
    """Integer rows ``(coeffs, rhs)`` and the fixed upper bounds after
    them, in variable order, as integer tableau rows.

    Every call supplies finite int bounds for the ``moving`` variables
    (default: none); each gets one shifted column whose upper bound
    ``up - lo`` is a column bound of the kernel, not a row, and one without
    finite bounds here is rejected.  The other variables' bounds (None, int
    or Fraction) are fixed here: such a variable gets one shifted column and
    a row for a finite upper bound, or a positive/negative pair if its lower
    bound is None.  A row that a fractional fixed lower bound shifts is
    scaled to integers by ``scales[r]``, the least positive int that does.
    Columns keep their tableau order, which the kernel's Bland rule reads
    (see :mod:`pwlmip._kernel`).
    """

    __slots__ = ("ncols", "dense", "totals", "rhs", "scales", "touch",
                 "cols", "plan")

    def __init__(self, rows, lowers, uppers=None, moving=()):
        n = len(lowers)
        uppers = uppers or [None] * n
        pos = {i: j for j, i in enumerate(moving)}
        for i in moving:
            if lowers[i] is None or uppers[i] is None:
                raise ValueError("moving variable %d needs finite bounds" % i)
        rows = list(rows)
        self.rhs = [rhs for _, rhs in rows]
        col_of = list(accumulate((1 if lo is not None else 2 for lo in lowers),
                                 initial=0))
        ncols = self.ncols = col_of.pop()
        self.cols = [col_of[i] for i in moving]

        # x <= up is a row for a fixed upper bound and a column bound for a
        # moving one.
        rows += [integer_row(((i, 1),), uppers[i], n) for i in range(n)
                 if i not in pos and uppers[i] is not None]

        # A fixed lower bound is folded into the total; a moving shift is
        # kept as (row, coefficient) for each call.
        self.dense, self.totals, self.scales = [], [], []
        self.touch = [[] for _ in moving]
        for r, (coeffs, rhs) in enumerate(rows):
            scale = 1
            for i, k in coeffs:
                lo = lowers[i]
                if type(lo) is Fraction:
                    scale = lcm(scale, lo.denominator // gcd(k, lo.denominator))
            dense = [0] * ncols
            total = rhs * scale
            for i, k in coeffs:
                k *= scale
                dense[col_of[i]] += k
                lo = lowers[i]
                if lo is None:
                    dense[col_of[i] + 1] -= k
                elif not k:
                    continue
                elif i in pos:
                    self.touch[pos[i]].append((r, k))
                else:
                    total -= k * lo.numerator // lo.denominator
            self.dense.append(dense)
            self.totals.append(total)
            self.scales.append(scale)

        # How a vertex maps back, per variable: (column, 0, fixed lower),
        # (column, 1, moving position) or (column, 2, negative column).
        self.plan = [
            (c, 2, c + 1) if lo is None else (c, 1, pos[i]) if i in pos
            else (c, 0, lo)
            for i, (c, lo) in enumerate(zip(col_of, lowers))
        ]

    def set_rhs(self, r, rhs):
        """Give model row ``r`` the new right-hand side ``rhs``."""
        self.totals[r] += self.scales[r] * (rhs - self.rhs[r])
        self.rhs[r] = rhs

    def totals_at(self, lowers):
        """Right-hand sides at these int lower bounds of the moving variables."""
        totals = self.totals[:]
        for j, lo in enumerate(lowers):
            for r, k in self.touch[j] if lo else ():
                totals[r] -= k * lo
        return totals


class LiveTableau:
    """The one tableau a search keeps across its node LPs.

    ``tableau`` is None until a cold LP of the search ends optimal (feasible
    with no objective).  From then on it is the final tableau of the
    search's latest LP, over the structural and slack columns, with
    ``basis``, ``totals`` the right-hand sides it was solved at, ``bounds``
    its column bounds and ``flipped`` its complemented columns.  Its
    objective row has no negative entry: it is the priced-out phase-2
    objective, or all zeros in a feasibility search.
    """

    __slots__ = ("tableau", "basis", "totals", "bounds", "flipped")

    def __init__(self):
        self.tableau = self.basis = self.totals = None
        self.bounds = self.flipped = None

    def copy(self):
        """An independent copy: LPs warm-started from it leave this one as
        it is."""
        other = LiveTableau()
        if self.tableau is not None:
            other.tableau = [row[:] for row in self.tableau]
            other.basis, other.totals = self.basis[:], self.totals[:]
            other.bounds, other.flipped = self.bounds[:], self.flipped[:]
        return other


def solve_lp_feasibility(rows, lowers, uppers, stats=None, objective=None,
                         live=None):
    """Find an exact vertex satisfying all rows and bounds, or prove none.

    rows: a :class:`CompiledRows`, with lowers/uppers the finite int bounds
    of its moving variables; or an iterable of rows as :class:`CompiledRows`
    takes them, with lowers/uppers the bounds of every variable, each None
    (unbounded), an int or a Fraction.  ``objective``, the index of a
    compiled row, asks for a vertex that minimizes that row's left side: a
    phase 2 from the phase-1 vertex, or a dual phase from the all-slack
    basis when the row is dual feasible there.  ``stats``, a
    :class:`~pwlmip.milp.model.SolveStats`, counts the call, its pivots, an
    infeasible verdict and the tableau sizes.  ``live``, a
    :class:`LiveTableau` that every call of one search passes with the same
    compiled rows and objective, warm-starts the call: a tableau it holds is
    moved to this call's right-hand sides and bounds and re-optimized by
    dual simplex, and a call that starts cold leaves its final tableau there
    once it ends optimal.  Without it the call starts cold.  Returns
    (feasible, point); point holds an int per integral value and a Fraction
    otherwise, and it is None if the LP is infeasible or its objective is
    unbounded below.
    """
    if not isinstance(rows, CompiledRows):
        rows = CompiledRows(rows, lowers, uppers)
        lowers = uppers = ()
    totals = rows.totals_at(lowers)
    stats = SolveStats() if stats is None else stats
    stats.lp_calls += 1
    ncols = rows.ncols
    m = len(totals)
    art_rows = [k for k in range(m) if totals[k] < 0]
    if not art_rows and objective is None:
        # The all-zeros point (every column at its lower bound) is feasible.
        return True, _point(rows.plan, lowers, [0] * ncols)

    real = ncols + m
    live = LiveTableau() if live is None else live
    if live.tableau is not None:
        tableau, basis = live.tableau, live.basis
        bounds, flipped = live.bounds, live.flipped
        _move_rhs(tableau, real, ncols, live.totals, totals)
        _move_bounds(tableau, real, bounds, flipped, rows.cols, lowers, uppers)
        live.totals = totals
        _optimize(tableau, basis, m, real, bounds, flipped, stats)
        if _kernel.violated_row(tableau, basis, m, real, bounds) >= 0:
            stats.infeasible_lps += 1
            return False, None
        return True, _point(rows.plan, lowers,
                            _vertex(tableau, basis, ncols, real, bounds,
                                    flipped))

    # The dual cold start (see the module docstring): no artificial, and
    # the rows keep their negative right-hand sides.
    dense = rows.dense
    head = [0] * ncols if objective is None else dense[objective]
    dual = (objective is not None and min(head, default=0) >= 0
            and all(head[c] for c in rows.cols))
    if dual:
        art_rows = []

    # Tableau columns: structural | slacks | artificials | rhs | denominator,
    # every row over 1.  An artificial row enters negated.  The phase-1
    # objective (minimize the artificial sum, priced out against the basic
    # artificials) is the sum of the artificial rows' structural parts and
    # right-hand sides, with 1 in their slack columns.
    width = real + len(art_rows)
    bounds = [None] * width
    for c, lo, up in zip(rows.cols, lowers, uppers):
        bounds[c] = up - lo
    flipped = [False] * width
    pad = [0] * (width - ncols + 1) + [1]
    tableau = []
    basis = []
    art = real
    for k in range(m):
        total = totals[k]
        if total < 0 and not dual:
            row = [-x for x in dense[k]] + pad
            row[ncols + k] = -1
            row[art] = 1
            row[width] = -total
            basis.append(art)
            art += 1
        else:
            row = dense[k] + pad
            row[ncols + k] = 1
            row[width] = total
            basis.append(ncols + k)
        tableau.append(row)

    if art_rows:
        obj = list(map(sum, zip(*[dense[k] for k in art_rows]))) + pad
        for k in art_rows:
            obj[ncols + k] = 1
        obj[width] = sum(totals[k] for k in art_rows)
        tableau.append(obj)
        _optimize(tableau, basis, m, width, bounds, flipped, stats)
        if tableau[m][width]:
            stats.infeasible_lps += 1
            return False, None
        _leave_artificials(tableau, basis, m, real, bounds, flipped)
        del bounds[real:], flipped[real:]

    # The objective row over the feasible basis (all zeros in a feasibility
    # search), complemented where its columns are, priced out by pivoting
    # each basic column on its own row, which leaves every constraint row as
    # it is.  Only a real objective is then minimized, by phase 2.  After a
    # dual start nothing is complemented or basic, and the row goes in as
    # it is.
    obj = head + [0] * (m + 1) + [1]
    for c in rows.cols:
        if flipped[c] and obj[c]:
            obj[real] -= obj[c] * bounds[c]
            obj[c] = -obj[c]
    tableau.append(obj)
    for k in range(m):
        if basis[k] < ncols and tableau[m][basis[k]]:
            _kernel.pivot(tableau, basis, m, real, k, basis[k])
    if objective is not None:
        _optimize(tableau, basis, m, real, bounds, flipped, stats)
        if dual and _kernel.violated_row(tableau, basis, m, real,
                                         bounds) >= 0:
            stats.infeasible_lps += 1
            return False, None
        if min(tableau[m][:real]) < 0:
            return True, None

    live.tableau, live.basis, live.totals = tableau, basis, totals
    live.bounds, live.flipped = bounds, flipped
    return True, _point(rows.plan, lowers,
                        _vertex(tableau, basis, ncols, real, bounds, flipped))


def _optimize(tableau, basis, nrows, width, bounds, flipped, stats):
    """One kernel call, with its tableau size and pivots noted in ``stats``."""
    stats.note_tableau(nrows, width)
    stats.pivots += _kernel.phase1(tableau, basis, nrows, width,
                                   bounds=bounds, flipped=flipped)


def _shift(tableau, width, col, delta):
    """Add ``delta`` times each row's entry in column ``col`` to its
    right-hand side, objective row included, in place.

    That moves the constant a column stands against by delta: a slack's
    total, or the bound U of a complemented column ``U - x``.  Every
    compiled row starts over 1 with slack entry 1, so a tableau row over d
    has d times its multiplier of compiled row r in slack column r, and its
    right-hand side stays an int over d.
    """
    for row in tableau:
        t = row[col]
        if t:
            row[width] += t * delta


def _move_rhs(tableau, width, ncols, old, new):
    """Move a tableau solved at right-hand sides ``old`` to ``new``, in place:
    row r's total moving by delta is a shift of its slack column
    ``ncols + r``."""
    for r, (was, now) in enumerate(zip(old, new)):
        if now != was:
            _shift(tableau, width, ncols + r, now - was)


def _move_bounds(tableau, width, bounds, flipped, cols, lowers, uppers):
    """Give the moving columns ``cols`` the bounds ``up - lo``, in place.

    Only a complemented column's bound shows in the right-hand sides: it
    reads ``U - x``, so U moving by delta is a shift of that column.
    """
    for c, lo, up in zip(cols, lowers, uppers):
        delta = up - lo - bounds[c]
        if delta:
            bounds[c] += delta
            if flipped[c]:
                _shift(tableau, width, c, delta)


def _vertex(tableau, basis, ncols, width, bounds, flipped):
    """The structural columns' values at the tableau's basic solution."""
    values = [bounds[j] if flipped[j] else 0 for j in range(ncols)]
    for k, b in enumerate(basis):
        if b < ncols:
            num, den = tableau[k][width], tableau[k][width + 1]
            q, rem = divmod(num, den)
            values[b] = Fraction(num, den) if rem else q
    return values


def _leave_artificials(tableau, basis, nrows, real, bounds, flipped):
    """Drop the artificial columns and the phase-1 objective row of a
    feasible phase-1 tableau.

    An artificial still basic sits at zero.  It leaves by a degenerate pivot
    on the nonzero entry of its row of lowest rank among the ``real``
    columns, the row negated first if that entry is negative, and
    un-complemented after if the entering column was complemented.  There
    always is one: the slack columns alone make an invertible block, so no
    row of the tableau is zero on them.
    """
    width = len(tableau[0]) - 2
    for k in range(nrows):
        if basis[k] >= real:
            row = tableau[k]
            enter = _kernel.lowest_rank((j for j in range(real) if row[j]),
                                        flipped)
            if row[enter] < 0:
                tableau[k] = [-x for x in row[:-1]] + row[-1:]
            _kernel.pivot_in(tableau, basis, nrows, width, k, enter, bounds,
                             flipped)
    tableau.pop()
    tableau[:] = [row[:real] + row[width:] for row in tableau]


def _point(plan, lowers, values):
    point = []
    for col, kind, arg in plan:
        x = values[col]
        if kind == 2:
            x -= values[arg]
        elif kind == 1:
            x += lowers[arg]
        elif arg:
            x = exact(x + arg)  # plus a Fraction lower bound, x may be integral
        point.append(x)
    return point
