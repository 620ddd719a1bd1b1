"""Simplex pivot kernel over an integer tableau, for both phases.

:func:`phase1` pivots a tableau to the optimum of its objective row; it
keeps the name it had when it ran phase 1 only.  The LP layer calls it on
the phase-1 objective (the artificial sum) and, when it asks for an optimal
vertex, again on a phase-2 objective priced out against the feasible basis,
with the artificial columns sliced off.  Every later node LP of a search
calls it once, on the search's last optimal tableau with the right-hand
sides moved to the node: the dual phase below re-optimizes it.
:func:`pivot` is one pivot step: the loop takes it, and so does the LP
layer to price out an objective and to move an artificial left basic at
zero out of the basis.

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

Pivot selection is Bland's rule on the rational values: the entering column
is the lowest index with a negative objective entry; the leaving row
minimizes rhs/a over positive pivot candidates, compared by
cross-multiplication (the row denominator cancels from the ratio), ties
broken by the lowest basic variable index.  Bland's rule guarantees
termination, and because every choice depends only on the rational values,
the pivot sequence is the one a rational tableau would take.

A dual phase runs first, while some right-hand side is negative.  That is
never so on a tableau built from the all-slack basis, whose rows all start
at rhs >= 0; it is so on an optimal tableau whose right-hand sides the LP
layer has moved to another node's bounds (a warm start).  Its precondition
is a dual-feasible objective row: no negative entry among the columns.
Dual Bland's rule picks the pivot: the row with a negative right-hand side
and the lowest basic index leaves, and the entering column minimizes
``obj[j] / -row[j]`` over the row's negative entries, compared by
cross-multiplication, ties to the lowest j.  The leaving row is negated
(its denominator kept), so its pivot entry is positive, and pivoted on like
any other.  The objective row stays dual feasible, and once no right-hand
side is negative the tableau is optimal.  A leaving row with no negative
entry proves the LP infeasible: the kernel returns with that row's
right-hand side still negative, and the row is a Farkas ray.
"""

from math import gcd

# A row is reduced to lowest terms once its denominator exceeds this.
REDUCE_ABOVE = 1 << 30


def phase1(tableau, basis, nrows, ncols):
    """Pivot to an optimum in place; returns the pivot count, dual pivots
    included.

    It returns early in two cases.  A dual pivot row without a negative
    entry leaves its right-hand side negative: the LP is infeasible.  An
    entering column without a positive entry: the objective is then
    unbounded below, and row ``nrows`` still holds that negative entry.  A
    phase-1 objective never is.
    """
    pivots = 0
    while True:
        leave = -1
        for i in range(nrows):
            if tableau[i][ncols] < 0 and (leave < 0 or basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            break
        row = tableau[leave]
        obj = tableau[nrows]
        enter = -1
        best_c = best_a = 0
        for j in range(ncols):
            a = row[j]
            if a < 0:
                # obj[j] / -a < best_c / -best_a, times -a * -best_a > 0
                c = obj[j]
                if enter < 0 or c * best_a > best_c * a:
                    enter, best_c, best_a = j, c, a
        if enter < 0:
            return pivots
        row = tableau[leave] = [-x for x in row]
        row[-1] = -row[-1]
        pivot(tableau, basis, nrows, ncols, leave, enter)
        pivots += 1

    while True:
        obj = tableau[nrows]
        enter = -1
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return pivots

        leave = -1
        best_rhs = best_a = 0
        for i in range(nrows):
            row = tableau[i]
            a = row[enter]
            if a > 0:
                rhs = row[ncols]
                if leave >= 0:
                    lhs = rhs * best_a
                    cmp = best_rhs * a
                    if lhs > cmp or (lhs == cmp and basis[i] > basis[leave]):
                        continue
                best_rhs = rhs
                best_a = a
                leave = i
        if leave < 0:
            return pivots
        pivot(tableau, basis, nrows, ncols, leave, enter)
        pivots += 1


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
