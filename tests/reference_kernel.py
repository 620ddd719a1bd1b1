"""Reference phase-1 simplex pivot loop over Fractions.

The solver's kernel, ``pwlmip._kernel.phase1``, pivots on integer rows over
per-row denominators; this is the plain rational loop it must agree with,
pivot for pivot.  The tableau is a list of ``nrows + 1`` lists of length
``ncols + 1``: rows 0..nrows-1 are constraint rows, row nrows is the
priced-out objective row, and column ncols holds the right-hand side.
Entries are Fractions.  ``basis[i]`` is the column currently basic in row i.

Pivot selection is Bland's rule: the entering column is the lowest index with
a negative objective entry; the leaving row minimizes rhs/a over positive
pivot candidates, ties broken by the lowest basic variable index.  An
entering column without a positive entry ends the loop: the objective is
unbounded below.

Before that, while some right-hand side is negative, a dual simplex pivots
on a tableau whose objective row has no negative entry.  Dual Bland's rule:
of the rows with a negative right-hand side, the one whose basic variable
has the lowest index leaves; the entering column minimizes obj[j] / -a over
the negative entries a of that row, ties broken by the lowest column.  A
leaving row without a negative entry ends the loop with its right-hand side
still negative: the LP is infeasible.
"""


def _eliminate(tableau, nrows, ncols, leave, enter):
    prow = tableau[leave]
    p = prow[enter]
    if p != 1:
        for j in range(ncols + 1):
            if prow[j]:
                prow[j] = prow[j] / p
    for i in range(nrows + 1):
        if i == leave:
            continue
        row = tableau[i]
        f = row[enter]
        if f:
            for j in range(ncols + 1):
                if prow[j]:
                    row[j] = row[j] - f * prow[j]


def phase1(tableau, basis, nrows, ncols):
    pivots = 0
    obj = tableau[nrows]
    while True:
        infeasible = [i for i in range(nrows) if tableau[i][ncols] < 0]
        if not infeasible:
            break
        leave = min(infeasible, key=lambda i: basis[i])
        row = tableau[leave]
        candidates = [j for j in range(ncols) if row[j] < 0]
        if not candidates:
            return pivots
        enter = min(candidates, key=lambda j: (obj[j] / -row[j], j))
        _eliminate(tableau, nrows, ncols, leave, enter)
        basis[leave] = enter
        pivots += 1

    while True:
        enter = -1
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return pivots

        leave = -1
        best = None
        for i in range(nrows):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][ncols] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return pivots

        _eliminate(tableau, nrows, ncols, leave, enter)
        basis[leave] = enter
        pivots += 1
