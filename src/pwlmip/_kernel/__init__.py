"""Simplex pivot kernel over an integer tableau, for both phases.

:func:`phase1` pivots a tableau to the optimum of its objective row; it
keeps the name it had when it ran phase 1 only.  The LP layer calls it on
the phase-1 objective (the artificial sum) and, when it asks for an optimal
vertex, again on a phase-2 objective priced out against the feasible basis,
with the artificial columns sliced off; a cold LP whose objective row is
dual feasible at the all-slack basis calls it once instead, with no phase
1.  Every later node LP of a search
calls it once, on the search's last optimal tableau with the right-hand
sides moved to the node: the dual phase below re-optimizes it.
:func:`pivot` is one pivot step: the loop takes it, and so does the LP
layer to price out an objective.  :func:`pivot_in` is a pivot that also
un-complements the entering column (below); the LP layer takes it to move
an artificial left basic at zero out of the basis.

The tableau is a list of ``nrows + 1`` rows of Python ints.  Rows
0..nrows-1 are constraint rows and row nrows is the priced-out objective row.
Each row has ``ncols + 2`` entries: columns 0..ncols-1, the right-hand side at
index ncols, and the row's positive denominator at index ncols + 1.  Row i
stands for the rational row ``tableau[i][j] / tableau[i][ncols + 1]``, so the
tableau is exact without any rational object.  ``basis[i]`` is the column
currently basic in row i.

A pivot keeps every row over its own denominator (fraction-free elimination
in the manner of Bareiss 1968 and Edmonds 1967): the pivot row is divided by
its pivot entry by moving that entry into the denominator, and every other
row with a nonzero entry in the entering column is combined with it by
cross-multiplication, touching only the pivot row's nonzero columns once the
row is rescaled.  Rows with a zero in the entering column are left
untouched.

Rows are reduced lazily.  A rewritten row is divided by the gcd of its
entries and denominator only once that denominator exceeds ``REDUCE_ABOVE``,
and the pivot row only once its pivot entry does.  Until then a row need not
be in lowest terms, but it stands for the same rational values, and pivot
selection (below) reads rows only through signs and cross-multiplied
comparisons, which a positive factor common to a row leaves unchanged.  So
the pivots are the ones eager reduction would take.  In lowest terms the
entries stay small and a full-row gcd almost never finds a factor, so
deferring it saves that pass over the row; the threshold, one CPython digit,
bounds how far past lowest terms a row's integers grow before it is reduced.

Bounded columns (Chvátal, *Linear Programming*, 1983, ch. 8).  A column j
may carry an upper bound ``bounds[j]`` = U (every column has lower bound 0):
the LP layer gives one to each variable with a finite range, instead of
a row ``x <= U``.  A nonbasic column sits at 0 or at U.  One at U is stored
*complemented* (``flipped[j]``): the tableau holds the column of
``U - x``, which is at 0, so every nonbasic column still reads 0 and a
row's right-hand side is still its basic variable's value.  A basic column
is never complemented.  A basic variable is feasible between 0 and U: its
row may violate the upper side, ``rhs > U * den``.

Pivot selection is Bland's rule on the rational values, over each
column's *rank*: ``j`` for column j at its lower side and ``ncols + j`` at
its upper side.  Those are x_j's index and its slack s_j's in the tableau
that would hold each upper bound as its own row ``x_j + s_j = U``, its
slacks after every other column, artificials included.  So the choices
below are exactly the ones Bland's rule takes on that tableau, pivot for
pivot, fixed columns aside (below), and they terminate, as Bland's rule
does under any fixed order of the variables (Bland, *Math. Oper. Res.*
1977; Chvátal 1983, ch. 8).  A nonbasic column has rank ``ncols + j`` when
complemented (it is s_j that would be nonbasic) and ``j`` otherwise.
Every call passes bounds and flags; an unbounded column has None.

A primal pivot: the entering column is the nonbasic column of lowest rank
with a negative objective entry.  The leaving candidates are the rows whose
basic variable the entering column drives to a bound (to 0 on a positive
entry, ranked at its lower side; to U on a negative entry, at its upper
side) and the entering column's own bound (ranked at its upper side, or at
its lower side when it is already complemented).  The one with the
smallest ratio leaves, compared by cross-multiplication (a row's
denominator cancels from its ratio), ties to the lowest rank.  The
entering column's own bound is a *bound flip*: the column is complemented
or un-complemented in every row, with no basis change, and counts as one
pivot, as it would be one on the bound's row.  A variable that leaves at U
has its row complemented first, so that it leaves at 0 as ``U - x``; an
entering column that was complemented has its row un-complemented after
the pivot.  Because every choice depends only on the rational values, the
pivot sequence is the one a rational tableau would take.

A dual phase runs first, while some basic variable is outside its bounds.
That is never so on a phase-1 tableau, whose rows all start at rhs >= 0
with an unbounded slack or artificial basic.  It is so on an optimal
tableau whose right-hand sides the LP layer has moved to another node's
bounds (a warm start), and on an all-slack tableau whose objective row is
already dual feasible (the LP layer's dual cold start).  Its precondition
is a dual-feasible objective row: no negative entry among the columns.
Dual Bland's rule picks the pivot: of the violated bounds (a negative
right-hand side ranked at the lower side, a right-hand side above U at the
upper side) the one of lowest rank leaves (:func:`violated_row`), and the
entering column minimizes ``obj[j] / -a_j`` over the negative entries a_j
of the leaving row, read as ``x - U`` for an upper violation, compared by
cross-multiplication, ties to the lowest rank.  The leaving row is negated
(its denominator kept), or its basic column complemented, so its pivot
entry is positive, and pivoted on like any other.  The objective row stays
dual feasible, and once no bound is violated the tableau is optimal.  A
leaving row with no candidate proves the LP infeasible: the kernel returns
with that row's bound still violated, and the row is a Farkas ray, whether
its right-hand side is negative or above its basic variable's upper
bound.  :func:`violated_row` finds it on
the returned tableau: its entries off the basic column are all ``>= 0``
below 0 and all ``<= 0`` above U, fixed columns aside, and every nonbasic
column reads >= 0.

Fixed columns (Koberstein, *The dual simplex method*, 2005).  A column
with U = 0 cannot move, so it never enters: it is no candidate of the dual
ratio test, and never the entering column of a primal step.  Where its
objective entry is negative it is complemented instead, which with U = 0
negates the column and moves no right-hand side: bookkeeping, not a
pivot, and not counted.  A primal step does so for every fixed column
first; a dual pivot lowers only the objective entries of the columns with
a negative entry in the leaving row, and is followed by it for the fixed
ones among them.  So the objective row ends dual feasible over every
column, and a warm start from the tableau stays valid whatever bounds the
next call moves.  Fixed columns act as constants, so Bland's rule still
terminates; in a Farkas row a fixed column's entry may have either sign,
since its two bounds pin it at 0.
"""

from math import gcd

# A row is reduced to lowest terms once its denominator exceeds this.
REDUCE_ABOVE = 1 << 30


def phase1(tableau, basis, nrows, ncols, *, bounds, flipped):
    """Pivot to an optimum in place; returns the pivot count, dual pivots
    and bound flips included, complemented fixed columns not.  ``bounds``
    holds U or None per column, and ``flipped`` the complemented columns
    (updated in place).

    It returns early in two cases.  A dual pivot row without a candidate
    leaves its bound violated: the LP is infeasible, and
    :func:`violated_row` returns that row.  An entering column that neither
    a row nor a bound of its own stops: the objective is then unbounded
    below, and row ``nrows`` still holds that negative entry.  A phase-1
    objective never is, nor is a branch-and-bound search's, which the
    variables' bounds bound; only a direct LP call meets it.
    """
    den = ncols + 1
    pivots = 0
    while (leave := violated_row(tableau, basis, nrows, ncols, bounds)) >= 0:
        row = tableau[leave]
        obj = tableau[nrows]
        b = basis[leave]
        above = row[ncols] >= 0  # the upper bound is violated, read x - U
        enter = -1
        best_c = best_a = 0
        pinned = []  # fixed columns whose objective entry the pivot lowers
        for j in range(ncols):
            a = -row[j] if above else row[j]
            if a < 0 and j != b:
                if bounds[j] == 0:
                    pinned.append(j)
                    continue
                # obj[j] / -a < best_c / -best_a, times -a * -best_a > 0
                c = obj[j]
                if enter >= 0:
                    lhs, cmp = c * best_a, best_c * a
                    if lhs < cmp or lhs == cmp and (
                            j + ncols * flipped[j]
                            > enter + ncols * flipped[enter]):
                        continue
                enter, best_c, best_a = j, c, a
        if enter < 0:
            return pivots
        if above:
            row[b] = -row[b]
            row[ncols] -= bounds[b] * row[den]
            flipped[b] = True
        else:
            row = tableau[leave] = [-x for x in row]
            row[-1] = -row[-1]
        pivot_in(tableau, basis, nrows, ncols, leave, enter, bounds, flipped)
        pivots += 1
        if pinned:
            _pin(tableau, ncols, pinned, flipped)

    fixed = [j for j, u in enumerate(bounds) if u == 0]
    while True:
        _pin(tableau, ncols, fixed, flipped)
        obj = tableau[nrows]
        enter = lowest_rank((j for j in range(ncols) if obj[j] < 0),
                            flipped)
        if enter < 0:
            return pivots

        leave = -1
        best_rhs = best_a = best_r = 0
        for i in range(nrows):
            row = tableau[i]
            a = row[enter]
            if a > 0:
                rhs = row[ncols]
                r = basis[i]
            elif a < 0:
                u = bounds[basis[i]]
                if u is None:
                    continue
                a = -a
                rhs = u * row[den] - row[ncols]
                r = ncols + basis[i]
            else:
                continue
            if leave >= 0:
                lhs = rhs * best_a
                cmp = best_rhs * a
                if lhs > cmp or (lhs == cmp and r > best_r):
                    continue
            best_rhs = rhs
            best_a = a
            best_r = r
            leave = i
        u = bounds[enter]
        if u is not None:
            r = enter if flipped[enter] else ncols + enter
            if leave < 0 or u * best_a < best_rhs or (
                    u * best_a == best_rhs and r < best_r):
                _flip(tableau, ncols, enter, u)
                flipped[enter] = not flipped[enter]
                pivots += 1
                continue
        if leave < 0:
            return pivots
        b = basis[leave]
        if tableau[leave][enter] < 0:  # b leaves at its upper bound
            _complement(tableau, leave, b, bounds[b], ncols)
            flipped[b] = True
        pivot_in(tableau, basis, nrows, ncols, leave, enter, bounds, flipped)
        pivots += 1


def violated_row(tableau, basis, nrows, ncols, bounds):
    """The row of lowest rank whose basic variable b is below 0 (ranked b)
    or above its bound (ranked ``ncols + b``), or -1 if there is none."""
    leave = -1
    for i in range(nrows):
        row = tableau[i]
        rhs = row[ncols]
        b = basis[i]
        if rhs < 0:
            r = b
        else:
            u = bounds[b]
            if u is None or rhs <= u * row[ncols + 1]:
                continue
            r = ncols + b
        if leave < 0 or r < best_r:
            leave, best_r = i, r
    return leave


def lowest_rank(columns, flipped):
    """The column of lowest rank among ``columns``, given in increasing
    order, or -1 if there is none: the first one at its lower side, else
    the first one."""
    first = -1
    for j in columns:
        if not flipped[j]:
            return j
        if first < 0:
            first = j
    return first


def pivot_in(tableau, basis, nrows, ncols, leave, enter, bounds, flipped):
    """Pivot ``enter`` into row ``leave``, un-complemented if it was."""
    pivot(tableau, basis, nrows, ncols, leave, enter)
    if flipped[enter]:
        _complement(tableau, leave, enter, bounds[enter], ncols)
        flipped[enter] = False


def _pin(tableau, ncols, columns, flipped):
    """Complement each fixed column of ``columns`` whose objective entry is
    negative: with U = 0 that negates the column and moves no right-hand
    side, so it is no pivot."""
    obj = tableau[-1]
    for j in columns:
        if obj[j] < 0:
            _flip(tableau, ncols, j, 0)
            flipped[j] = not flipped[j]


def _flip(tableau, ncols, j, u):
    """Move nonbasic column j to its other bound: substitute ``U - x`` for
    it in every row, objective included."""
    for row in tableau:
        a = row[j]
        if a:
            row[j] = -a
            row[ncols] -= a * u


def _complement(tableau, i, j, u, ncols):
    """Substitute ``U - x`` for column j, basic in row i: the row, negated,
    keeps j's unit entry, and its right-hand side becomes ``U - rhs``."""
    row = tableau[i]
    d = row[ncols + 1]
    new = tableau[i] = [-x for x in row]
    new[j] = row[j]
    new[ncols] = u * d - row[ncols]
    new[ncols + 1] = d


def pivot(tableau, basis, nrows, ncols, leave, enter):
    """Make column ``enter`` basic in row ``leave``, whose entry there must
    be positive, and eliminate it from every other row, objective included."""
    den = ncols + 1
    # Divide the pivot row by its pivot entry: the entry becomes the row's
    # denominator, so the entering column reads 1.
    prow = tableau[leave]
    p = prow[enter]
    prow[den] = p
    if p > REDUCE_ABOVE:
        g = gcd(*prow)
        if g > 1:
            prow = tableau[leave] = [x // g for x in prow]
            p //= g
    nonzero = [(j, x) for j, x in enumerate(prow) if x]
    nonzero.pop()  # the denominator, always last and positive
    for i in range(nrows + 1):
        if i == leave:
            continue
        row = tableau[i]
        f = row[enter]
        if f:
            # row/d - (f/d) * prow/p == (row*s - t*prow) / (d*s)
            g = gcd(f, p)
            s = p // g
            t = f // g
            if s != 1:
                row = tableau[i] = [x * s for x in row]
            for j, x in nonzero:
                row[j] -= t * x
            if row[den] > REDUCE_ABOVE:
                g = gcd(*row)
                if g > 1:
                    tableau[i] = [x // g for x in row]
    basis[leave] = enter
