"""Plain mixed-integer linear models: variables, <=-rows, the solve result.

:class:`Variable` is the package's one variable type, which
:mod:`pwlmip.emip` re-exports; :func:`check_bounds` its one exact check.
This layer imports nothing from the layers above it.

A row is integers: ``(coeffs, rhs)`` stands for ``sum(c * x_i) <= rhs``,
coeffs (index, int) pairs sorted by index.  :func:`integer_row` scales a
rational row to that form by a positive factor, which keeps its solution
set, so a row carries no denominator.  The solver reads rows as they are.
Variable bounds and the assignment a solve returns follow
:func:`pwlmip.rationals.exact`, an int when integral; Fractions appear only
for values that are not.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import lcm

from ..rationals import exact
from ..records import Frozen, Record

__all__ = [
    "Variable",
    "MilpModel",
    "SolveStats",
    "SolveResult",
    "ResourceExhausted",
    "SolverInternalError",
    "VarKind",
    "check_bounds",
    "integer_row",
]


class VarKind(enum.Enum):
    INTEGER = "integer"
    CONTINUOUS = "continuous"


class Variable(Frozen):
    """A named column with exact bounds, None for an infinite one."""

    __slots__ = _fields = ("name", "kind", "lower", "upper")

    def __init__(self, name: str, kind: VarKind = VarKind.INTEGER,
                 lower: int | Fraction | None = 0,
                 upper: int | Fraction | None = None):
        if not name or not isinstance(name, str):
            raise ValueError("variable needs a nonempty string name")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "lower", None if lower is None else exact(lower))
        object.__setattr__(self, "upper", None if upper is None else exact(upper))


def check_bounds(variables, assignment):
    """Exact violation list of ``assignment[i]`` (an int or Fraction)
    against the bounds and kind of ``variables[i]``."""
    problems = []
    for i, v in enumerate(variables):
        x = assignment[i]
        if v.lower is not None and x < v.lower:
            problems.append("%s=%s below lower bound %s" % (v.name, x, v.lower))
        if v.upper is not None and x > v.upper:
            problems.append("%s=%s above upper bound %s" % (v.name, x, v.upper))
        if v.kind is VarKind.INTEGER and x.denominator != 1:
            problems.append("%s=%s not integral" % (v.name, x))
    return problems


def integer_row(coeffs, rhs, n_vars):
    """The rational row ``sum(c * x_i) <= rhs`` times the lcm of its
    denominators, ``(coeffs, rhs)`` in ints; a row of ints is taken as it
    is."""
    coeffs = sorted((int(i), exact(c)) for i, c in coeffs)
    for i, _ in coeffs:
        if not (0 <= i < n_vars):
            raise ValueError("row references unknown variable index %d" % i)
    rhs = exact(rhs)
    if type(rhs) is int and all(type(c) is int for _, c in coeffs):
        return tuple(coeffs), rhs
    den = lcm(rhs.denominator, *(c.denominator for _, c in coeffs))
    return (tuple((i, c.numerator * den // c.denominator) for i, c in coeffs),
            rhs.numerator * den // rhs.denominator)


class ResourceExhausted(Exception):
    """The branch-and-bound node limit was hit before an answer was found."""

    def __init__(self, nodes, limit):
        self.nodes = nodes
        self.limit = limit
        super().__init__("node limit %d exhausted after %d nodes" % (limit, nodes))


class SolverInternalError(AssertionError):
    """A solver produced an answer that failed its own exact re-check."""


class MilpModel(Frozen):
    """Variables plus integer rows ``(coeffs, rhs)``, taken as they are;
    :func:`integer_row` makes one from a rational row."""

    __slots__ = _fields = ("variables", "rows")

    def __init__(self, variables: tuple, rows: tuple):
        variables = tuple(variables)
        names = set()
        for v in variables:
            if v.name in names:
                raise ValueError("duplicate variable name %r" % v.name)
            names.add(v.name)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    def integer_indices(self):
        return [
            i for i, v in enumerate(self.variables) if v.kind is VarKind.INTEGER
        ]

    def check_assignment(self, assignment):
        """Exact violation list for a full assignment (index -> int or Fraction)."""
        problems = check_bounds(self.variables, assignment)
        for k, (coeffs, rhs) in enumerate(self.rows):
            total = sum(c * assignment[i] for i, c in coeffs)
            if total > rhs:
                problems.append("row %d: %s > %s" % (k, total, rhs))
        return problems


class SolveStats(Record):
    """A solve's counters.  The CLI's human report prints them in this
    field order, so a new counter needs no edit there.

    ``nodes``, ``lp_calls`` and ``pivots`` count search nodes, LP solves
    and simplex pivots; a node searched again at a lower threshold counts
    again.  ``probes`` counts the threshold levels ``maximize`` searched:
    1, plus 1 for each step down, and 0 for a feasibility search.
    ``infeasible_lps`` counts the LP relaxations that proved their box
    empty, and ``rounding_lps`` the LPs that rounded a fractional vertex
    (the ceiling and floor boxes, and the greedy floor's trials, at most
    one per fractional variable), which are not nodes.  ``max_depth`` is
    the number of branchings from the root to the deepest node solved, and
    ``max_tableau`` the (nrows, ncols) of the largest kernel call.
    """

    __slots__ = _fields = ("nodes", "lp_calls", "pivots", "probes",
                           "infeasible_lps", "rounding_lps", "max_depth",
                           "max_tableau")

    def __init__(self, nodes: int = 0, lp_calls: int = 0, pivots: int = 0,
                 probes: int = 0, infeasible_lps: int = 0, rounding_lps: int = 0,
                 max_depth: int = 0, max_tableau: tuple = (0, 0)):
        self.nodes = nodes
        self.lp_calls = lp_calls
        self.pivots = pivots
        self.probes = probes
        self.infeasible_lps = infeasible_lps
        self.rounding_lps = rounding_lps
        self.max_depth = max_depth
        self.max_tableau = max_tableau

    def note_tableau(self, nrows, ncols):
        self.max_tableau = max(self.max_tableau, (nrows, ncols),
                               key=lambda s: (s[0] * s[1], s[0]))


class SolveResult(Record):
    """A solve's verdict, witness and stats.  ``best`` is an optimization's
    best threshold, None for a feasibility solve.  :func:`pwlmip.milp.maximize`
    searches integer thresholds of the form it is given, so its ``best`` is
    the optimum rounded down.  :mod:`pwlmip.pipeline` decides the grid: over
    integer variables it searches a multiple of the form, piecewise terms
    included, so ``best`` is the exact optimum (minimizing x/2 over an
    integer x in [1, 3] gives 1/2).  An objective with a continuous variable
    is searched as it is, so ``best`` is exact when the optimum is an
    integer and otherwise errs by less than 1 toward the worse side."""

    __slots__ = _fields = ("feasible", "assignment", "stats", "best")

    def __init__(self, feasible: bool, assignment: dict | None,
                 stats: SolveStats | None = None,
                 best: int | Fraction | None = None):
        self.feasible = feasible
        self.assignment = assignment
        self.stats = SolveStats() if stats is None else stats
        self.best = best
