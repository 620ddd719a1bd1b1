"""Reference simplex pivot loops over Fractions.

The solver's kernel, ``pwlmip._kernel.phase1``, pivots on integer rows over
per-row denominators; these are the plain rational loops it must agree with,
pivot for pivot: :func:`phase1` on a tableau that holds every bound as a
row, and :func:`bounded_phase1` on one whose columns may carry upper bounds.  The tableau is a list of ``nrows + 1`` lists of length
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


def _complement(row, j, u, ncols):
    """Row whose basic column j now reads ``u - x``: negated, but j's unit."""
    new = [-x for x in row]
    new[j] = row[j]
    new[ncols] = u - row[ncols]
    return new


def bounded_phase1(tableau, basis, nrows, ncols, bounds, flipped,
                   events=None):
    """The same rules over columns with upper bounds, as the kernel states
    them: ``bounds[j]`` is U or None, a column in ``flipped`` is stored as
    ``U - x``, and Bland's rule reads ranks instead of indices: j at the
    lower side of column j and ``ncols + j`` at its upper side.
    ``events``, a list, gets "flip" for each bound flip and "upper" for
    each variable that leaves at its upper bound.

    A fixed column (U = 0) never enters.  It is complemented instead, with
    no pivot, when its objective entry is negative: before each primal
    step, and after each dual pivot among the columns with a negative
    entry in the leaving row, the only ones that pivot lowers."""
    obj = tableau[nrows]
    pivots = 0

    def rank(j):
        return ncols + j if flipped[j] else j

    def enter_at(leave, enter):
        _eliminate(tableau, nrows, ncols, leave, enter)
        basis[leave] = enter
        if flipped[enter]:
            tableau[leave] = _complement(tableau[leave], enter, bounds[enter],
                                         ncols)
            flipped[enter] = False

    def leave_at_upper(leave):
        b = basis[leave]
        tableau[leave] = _complement(tableau[leave], b, bounds[b], ncols)
        flipped[b] = True
        if events is not None:
            events.append("upper")

    def pin(columns):
        # a fixed column with a negative objective entry is complemented:
        # with U = 0 that negates it, and it is no pivot
        for j in columns:
            if bounds[j] == 0 and obj[j] < 0:
                for row in tableau:
                    row[j] = -row[j]
                flipped[j] = not flipped[j]

    while True:
        violated = [(basis[i], i) for i in range(nrows)
                    if tableau[i][ncols] < 0]
        violated += [(ncols + basis[i], i) for i in range(nrows)
                     if bounds[basis[i]] is not None
                     and tableau[i][ncols] > bounds[basis[i]]]
        if not violated:
            break
        r, leave = min(violated)
        above = r >= ncols
        row = tableau[leave]
        read = [-x for x in row] if above else row
        negative = [j for j in range(ncols)
                    if read[j] < 0 and j != basis[leave]]
        candidates = [j for j in negative if bounds[j] != 0]
        if not candidates:
            return pivots
        enter = min(candidates, key=lambda j: (obj[j] / -read[j], rank(j)))
        if above:
            leave_at_upper(leave)
        enter_at(leave, enter)
        pivots += 1
        pin(negative)

    while True:
        pin(range(ncols))
        entering = [j for j in range(ncols) if obj[j] < 0]
        if not entering:
            return pivots
        enter = min(entering, key=rank)
        # (ratio, rank, row or None for the column's own bound)
        candidates = []
        for i in range(nrows):
            a = tableau[i][enter]
            u = bounds[basis[i]]
            if a > 0:
                candidates.append((tableau[i][ncols] / a, basis[i], i))
            elif a < 0 and u is not None:
                candidates.append(((u - tableau[i][ncols]) / -a,
                                   ncols + basis[i], i))
        if bounds[enter] is not None:
            own = enter if flipped[enter] else ncols + enter
            candidates.append((bounds[enter], own, None))
        if not candidates:
            return pivots
        _, _, leave = min(candidates, key=lambda c: c[:2])
        pivots += 1
        if leave is None:
            u = bounds[enter]
            for row in tableau:
                a = row[enter]
                row[enter] = -a
                row[ncols] -= a * u
            flipped[enter] = not flipped[enter]
            if events is not None:
                events.append("flip")
            continue
        if tableau[leave][enter] < 0:
            leave_at_upper(leave)
        enter_at(leave, enter)
