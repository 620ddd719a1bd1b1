"""Branch-and-bound search: feasibility, and optimization aimed at the
root bound.

Depth-first branch and bound on the LP relaxation.  At each node the exact
LP either proves the box empty or returns a vertex; a fractional integer
variable (the most fractional one, ties to the lowest index) splits the box
into ``x <= floor(v)`` (explored first) and ``x >= floor(v)+1``.  Integer
variables need finite bounds, so the tree is finite; Bland's rule makes
every answer deterministic.  A feasibility search stops at the first
integral vertex.

A search keeps exactly one live tableau
(:class:`~pwlmip.milp.lp.LiveTableau`): the last one its LPs solved,
whichever node that was.  Every node LP after
the first warm-starts from it by dual simplex and leaves its own final
tableau in its place.  A deferred child keeps only its bounds, so no
tableau is ever copied, and memory stays that of one LP.

Optimization (:func:`maximize`) adds the row ``objective >= T`` and
searches in integer threshold levels.  Every node LP maximizes the
objective, so an integral vertex is the best point of its box.  It becomes
the incumbent, worth the integer part of its objective, and T moves to that
value + 1.  Each node carries a cap, the best value its box can reach: its
parent's LP optimum, rounded down.  One level (:meth:`_Tree.search`) runs
the depth-first search at T, which only incumbents raise.  It defers a node
whose cap lies below T unsolved, and a node whose LP is infeasible at T
with cap T - 1, since its box holds no point at T; a deferred node keeps
its bounds and cap only.

:func:`solve_feasibility` runs the levels.  It starts T at the bracket's
low end.  After rounding the first fractional vertex (below) it raises T
to that vertex's cap, the root bound, so the search looks for a point at
the bound rather than climbing past each incumbent.  When a level runs dry, T steps
down to the best deferred cap and those nodes are searched again.  The
search stops once that cap is at most the incumbent's value or below the
low end, or once an incumbent reaches the top, the objective's largest
value over the variables' bounds.  So every answer is a point re-checked
exactly at T, plus a search exhausted above T.  ``SolveStats.probes``
counts the levels, and the node limit bounds all of them together.  The
top is finite, so the objective is bounded on every node LP.

An optimization also looks for an incumbent before its first branch, by
simple rounding (Achterberg, *Constraint Integer Programming*, 2007,
ch. 9).  At its first fractional vertex it fixes every integer variable at
the ceiling of its value, or, if that box is empty, at the floor, and one
LP through the live tableau fills in the continuous variables at their
best.  A ceiling point worth less than the root cap is then improved by a
greedy floor (same chapter): the variables the ceiling raised whose
decrease gains objective go back to their floors one at a time, smallest
fractional part first, each kept there if its box stays feasible and the
point gains, until the point reaches the cap.  Its trials, one LP each,
run on a copy of the live tableau, so the next node starts from the
tableau simple rounding left.  A point found is re-checked and moves the
threshold exactly as an integral vertex does; the node's children, which
carry its LP optimum, are then solved only if that still beats the
incumbent.  These LPs, the ceiling box and then the floor box or at most
one trial per fractional variable, solve no node:
``SolveStats.rounding_lps`` counts them, as do the LP counters, and the
node limit does not.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .lp import CompiledRows, LiveTableau, solve_lp_feasibility
from .model import (
    MilpModel,
    ResourceExhausted,
    SolveResult,
    SolveStats,
    SolverInternalError,
    integer_row,
)

DEFAULT_NODE_LIMIT = 10**6


def resolve_node_limit(node_limit=None) -> int:
    """Node budget: the argument, else the default."""
    if node_limit is None:
        return DEFAULT_NODE_LIMIT
    value = int(node_limit)
    if value <= 0:
        raise ValueError("node limit must be positive, got %d" % value)
    return value


def _compile(model: MilpModel, extra=()):
    """What every node of a search shares: (rows, lowers, uppers, int_idx).

    The rows are the model's, then ``extra``.  The integer variables'
    bounds are rounded inward to ints, which is the identity on integral
    bounds, and move from node to node; every other bound is fixed for the
    search and compiled into a column bound.  The compiled rows say whether
    the rounded box is ``empty``.
    """
    int_idx = model.integer_indices()
    lowers = [v.lower for v in model.variables]
    uppers = [v.upper for v in model.variables]
    for i in int_idx:
        if lowers[i] is None or uppers[i] is None:
            raise ValueError(
                "integer variable %r needs finite bounds for the search to "
                "terminate" % model.variables[i].name
            )
        lowers[i], uppers[i] = math.ceil(lowers[i]), math.floor(uppers[i])
    rows = CompiledRows(model.rows + extra, lowers, uppers, int_idx)
    # Node bounds are lists, not tuples: CPython keeps freed tuples on
    # per-length free lists until a full garbage collection, so a deep search
    # that unwinds would leave them holding memory for the rest of the process.
    return (rows, [lowers[i] for i in int_idx], [uppers[i] for i in int_idx],
            int_idx)


def solve_feasibility(model: MilpModel, node_limit=None,
                      objective=None) -> SolveResult:
    """Exact feasibility: a witness assignment or a proof of emptiness.

    ``objective`` is None, or ``(coeffs, den, lo, hi)`` from
    :func:`maximize`: the integer row ``sum(k * x) <= -T * den`` that says
    the objective is at least T, and the bracket of T, whose top ``hi`` no
    point exceeds.  The search then returns its last incumbent, with
    ``best`` its value, and counts each threshold level it searched in
    ``stats.probes``.
    """
    limit = resolve_node_limit(node_limit)
    tree = _Tree(model, objective)
    lo, stack = tree.t, [tree.root]
    while True:
        tree.stats.probes += objective is not None
        deferred = tree.search(stack, limit)
        # Every point left lies in a deferred box, worth at most its cap.
        top = max((node[3] for node in deferred), default=lo - 1)
        if top < lo or tree.best is not None and top <= tree.best:
            break
        tree.aim(top)
        stack = deferred[::-1]  # searched again in the order they were met
    if tree.incumbent is None:
        return SolveResult(False, None, tree.stats)
    return SolveResult(True, dict(enumerate(tree.incumbent)), tree.stats,
                       None if objective is None else tree.best)


class _Tree:
    """One search's state across its threshold levels: the compiled rows,
    whose threshold row holds the current threshold ``t``, the live
    tableau, the counters and the incumbent."""

    __slots__ = ("model", "rows", "int_idx", "root", "coeffs", "den", "hi",
                 "row", "phase2", "stats", "live", "t", "incumbent", "best",
                 "rounded")

    def __init__(self, model, objective):
        # A feasibility search has no threshold row: T = hi = 0 prunes
        # nothing, and its first integral vertex, worth 0, reaches hi.
        self.coeffs, self.den, self.t, self.hi = objective or ((), 1, 0, 0)
        extra = () if objective is None else (
            (self.coeffs, -self.t * self.den),)
        self.rows, lowers, uppers, self.int_idx = _compile(model, extra)
        self.root = (lowers, uppers, 0, self.hi)
        self.model = model
        self.row = len(model.rows)  # the threshold row's index
        self.phase2 = None if objective is None else self.row
        self.stats = SolveStats()
        self.live = LiveTableau()
        self.incumbent = self.best = None
        self.rounded = False

    def aim(self, t):
        """Hold the threshold row at ``t``."""
        self.t = t
        self.rows.set_rhs(self.row, -t * self.den)

    def improve(self, point):
        """Re-check an integral point exactly, make it the incumbent and
        move the threshold past it; True once the incumbent reaches hi."""
        problems = self.model.check_assignment(point)
        value = _floor_value(point, self.coeffs, self.den)
        if value < self.t:
            problems.append("objective %s below threshold %d" % (Fraction(
                -sum(k * point[i] for i, k in self.coeffs), self.den), self.t))
        if problems:
            raise SolverInternalError(
                "feasible answer failed exact re-check: %s" % "; ".join(problems)
            )
        self.incumbent, self.best = point, value
        if self.best == self.hi:
            return True
        self.aim(self.best + 1)
        return False

    def search(self, stack, limit):
        """Depth-first search of the nodes on ``stack`` at threshold t, which
        each incumbent raises.  Returns the nodes deferred to a lower
        threshold, each ``(lowers, uppers, depth, cap)``: [] once the
        incumbent reaches hi."""
        stats, live, int_idx = self.stats, self.live, self.int_idx
        deferred = []
        # Each node carries the best value its box can reach: its parent's LP
        # optimum, rounded down.
        while stack:
            node = lo, up, depth, cap = stack.pop()
            if cap < self.t:
                deferred.append(node)
                continue
            if stats.nodes >= limit:
                raise ResourceExhausted(stats.nodes, limit)
            stats.nodes += 1
            stats.max_depth = max(stats.max_depth, depth)
            if self.rows.empty:  # the rounded root box is empty
                continue
            feasible, point = solve_lp_feasibility(
                self.rows, lo, up, stats, objective=self.phase2, live=live)
            if not feasible:
                # no point at t; with no objective, none at any threshold
                if self.phase2 is not None:
                    deferred.append((lo, up, depth, self.t - 1))
                continue

            # Branch on the most fractional value p/q (ties to the lowest
            # index): its distance to an integer is min(r, q - r)/q with
            # r = p mod q.
            branch, best_score, best_q = -1, 0, 1
            for j, i in enumerate(int_idx):
                q = point[i].denominator
                r = point[i].numerator % q
                score = min(r, q - r)
                if score * best_q > best_score * q:
                    branch, best_score, best_q = j, score, q
            if branch < 0:
                if self.improve(point):
                    return []
                continue

            if self.phase2 is not None:
                cap = _floor_value(point, self.coeffs, self.den)
                if not self.rounded:
                    # Round the first fractional vertex, then aim at its
                    # bound; children the incumbent already beats are then
                    # deferred unsolved.
                    self.rounded = True
                    found = _round(self.rows, point, int_idx, stats,
                                   self.phase2, live, self.coeffs,
                                   cap * self.den)
                    if found is not None and self.improve(found):
                        return []
                    if cap > self.t:
                        self.aim(cap)

            # x <= floor(v) is explored first, then x >= floor(v) + 1; with
            # int bounds around v, neither box is empty.
            floor = point[int_idx[branch]].numerator // best_q
            left_up, right_lo = up[:], lo[:]
            left_up[branch], right_lo[branch] = floor, floor + 1
            stack.append((right_lo, up, depth + 1, cap))
            stack.append((lo, left_up, depth + 1, cap))
        return deferred


def _floor_value(point, coeffs, den):
    """floor(-sum(k * point[i]) / den), the objective of the threshold row
    ``coeffs`` over ``den`` rounded down, in ints over the common
    denominator of the point's values."""
    total, scale = 0, 1
    for i, k in coeffs:
        x = point[i]
        q = x.denominator
        if scale % q:
            grow = q // math.gcd(scale, q)
            total *= grow
            scale *= grow
        total -= k * x.numerator * (scale // q)
    return total // (scale * den)


def _round(rows, point, int_idx, stats, objective, live, coeffs, goal):
    """Simple rounding of a fractional vertex: the best point of the box
    with every integer variable fixed at the ceiling of its value, else at
    its floor (integral values stay), or None if both boxes are empty.
    ``goal`` is the root cap times the threshold row's denominator: a
    ceiling point at which the row ``coeffs`` reads above ``-goal``, worth
    less than the cap, is improved by :func:`_greedy_floor`.

    Each box is one LP through the search's live tableau, counted in
    ``stats.rounding_lps`` as well as in the LP counters; it fills in the
    continuous variables at their best.
    """
    values = [(point[i].numerator, point[i].denominator) for i in int_idx]
    for ceil in (1, 0):  # ceil(p/q) = (p + q - 1) // q, floor(p/q) = p // q
        fixed = [(p + ceil * (q - 1)) // q for p, q in values]
        stats.rounding_lps += 1
        feasible, found = solve_lp_feasibility(rows, fixed, fixed, stats,
                                               objective=objective, live=live)
        if feasible:
            if ceil:
                found = _greedy_floor(rows, values, fixed, found, int_idx,
                                      stats, objective, live, coeffs, goal)
            return found
    return None


def _greedy_floor(rows, values, fixed, found, int_idx, stats, objective,
                  live, coeffs, goal):
    """Lower the rounded-up variables of the ceiling point ``found`` back to
    their floors, one at a time, while that gains objective.

    Only a variable with a positive coefficient in the threshold row
    ``coeffs`` gains by going down.  These are taken smallest fractional
    part first, ties by index; each stays at its floor if its all-fixed
    box is feasible and the point found there is worth more, and the walk
    stops once the threshold row reaches ``-goal``, the root cap.  Each
    trial is one LP, counted as :func:`_round` counts its own, on a copy of
    the live tableau: the search's next node starts from the tableau that
    rounding left, whatever the trials did.
    """
    lhs = _row_value(found, coeffs)
    if lhs <= -goal:
        return found
    weight = dict(coeffs)
    order = sorted((Fraction(p % q, q), j)
                   for j, (p, q) in enumerate(values)
                   if q > 1 and weight.get(int_idx[j], 0) > 0)
    trial = live.copy()
    for _, j in order:
        fixed[j] -= 1
        stats.rounding_lps += 1
        feasible, point = solve_lp_feasibility(rows, fixed, fixed, stats,
                                               objective=objective, live=trial)
        if feasible:
            value = _row_value(point, coeffs)
            if value < lhs:
                found, lhs = point, value
                if lhs <= -goal:
                    break
                continue
        fixed[j] += 1
    return found


def _row_value(point, coeffs):
    """The left side of the threshold row at ``point``: lower is worth more."""
    return sum(k * point[i] for i, k in coeffs)


def _objective_end(model: MilpModel, coeffs, top):
    """The exact end of sum(c * x_i) over the variables' bounds: its
    largest value if ``top``, else its least.  A zero coefficient is
    skipped; an infinite bound is refused by name."""
    total = 0
    for i, c in coeffs:
        if c == 0:
            continue
        v = model.variables[i]
        upper = (c > 0) == top
        bound = v.upper if upper else v.lower
        if bound is None:
            raise ValueError("objective variable %r has no %s bound; the "
                             "threshold bracket is open"
                             % (v.name, "upper" if upper else "lower"))
        total += c * bound
    return total


def maximize(model: MilpModel, coeffs, t_lo=None,
             node_limit=None) -> SolveResult:
    """Largest integer threshold T >= t_lo with {model, sum(c*x) >= T}
    feasible.

    ``coeffs`` maps variable index to an exact coefficient.  The bracket's
    top is the form's largest value over the variables' bounds, and its low
    end, when t_lo is None, the least; each must be finite for every
    variable with a nonzero coefficient on the side it reads.  A top below
    the first integer at or above t_lo answers infeasible with no node
    solved.  One search answers it, over all its threshold levels, so the
    node limit bounds the whole call.  A form that takes only multiples of
    1/D at the feasible points is searched exactly when given times D
    (:mod:`pwlmip.pipeline` does so).
    """
    coeffs = tuple(coeffs.items() if isinstance(coeffs, dict) else coeffs)
    # The threshold row -sum(c * x) <= -T times den, the lcm of the
    # coefficients' denominators, as integer_row scales it
    den = 1
    for _, c in coeffs:
        den = math.lcm(den, Fraction(c).denominator)
    threshold, _ = integer_row(((i, -c) for i, c in coeffs), 0, model.n_vars)
    if t_lo is None:
        t_lo = _objective_end(model, coeffs, top=False)
    lo = math.ceil(t_lo)
    hi = math.floor(_objective_end(model, coeffs, top=True))
    if lo > hi:
        return SolveResult(False, None)
    return solve_feasibility(model, node_limit, (threshold, den, lo, hi))
