"""Plain mixed-integer linear models: variables, <=-rows, the solve result.

A row is integers: ``(coeffs, rhs, den)`` stands for ``sum(c/den * x_i) <=
rhs/den``, coeffs (index, int) pairs sorted by index and den > 0.  Lowered
rows are scaled to integers, so their den is 1.  The solver reads rows as
they are.  Variable bounds and the assignment a solve returns follow
:func:`pwlmip.rationals.exact`, an int when integral; Fractions appear only
for values that are not, and in the messages of ``check_assignment``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from ..emip import VarKind
from ..rationals import exact

__all__ = [
    "MilpVariable",
    "MilpModel",
    "SolveStats",
    "SolveResult",
    "ResourceExhausted",
    "SolverInternalError",
    "VarKind",
    "integer_row",
]


def integer_row(coeffs, rhs, n_vars):
    """The rational row ``sum(c * x_i) <= rhs`` over the lcm of its
    denominators; a row of ints is taken as it is, over 1."""
    coeffs = sorted((int(i), exact(c)) for i, c in coeffs)
    for i, _ in coeffs:
        if not (0 <= i < n_vars):
            raise ValueError("row references unknown variable index %d" % i)
    rhs = exact(rhs)
    if type(rhs) is int and all(type(c) is int for _, c in coeffs):
        return tuple(coeffs), rhs, 1
    den = lcm(rhs.denominator, *(c.denominator for _, c in coeffs))
    return (tuple((i, c.numerator * den // c.denominator) for i, c in coeffs),
            rhs.numerator * den // rhs.denominator, den)


class ResourceExhausted(Exception):
    """The branch-and-bound node limit was hit before an answer was found."""

    def __init__(self, nodes, limit):
        self.nodes = nodes
        self.limit = limit
        super().__init__("node limit %d exhausted after %d nodes" % (limit, nodes))


class SolverInternalError(AssertionError):
    """A solver produced an answer that failed its own exact re-check."""


@dataclass(frozen=True)
class MilpVariable:
    name: str
    kind: VarKind = VarKind.CONTINUOUS
    lower: int | Fraction | None = 0
    upper: int | Fraction | None = None

    def __post_init__(self):
        if self.lower is not None:
            object.__setattr__(self, "lower", exact(self.lower))
        if self.upper is not None:
            object.__setattr__(self, "upper", exact(self.upper))


@dataclass(frozen=True)
class MilpModel:
    """Variables plus integer rows ``(coeffs, rhs, den)``, taken as they
    are; :func:`integer_row` makes one from a rational row."""

    variables: tuple
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        names = set()
        for v in self.variables:
            if v.name in names:
                raise ValueError("duplicate variable name %r" % v.name)
            names.add(v.name)
        object.__setattr__(self, "rows", tuple(self.rows))

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    def integer_indices(self):
        return [
            i for i, v in enumerate(self.variables) if v.kind is VarKind.INTEGER
        ]

    def check_assignment(self, assignment):
        """Exact violation list for a full assignment (index -> int or Fraction)."""
        problems = []
        for i, v in enumerate(self.variables):
            x = assignment[i]
            if v.lower is not None and x < v.lower:
                problems.append("%s=%s below lower bound %s" % (v.name, x, v.lower))
            if v.upper is not None and x > v.upper:
                problems.append("%s=%s above upper bound %s" % (v.name, x, v.upper))
            if v.kind is VarKind.INTEGER and x.denominator != 1:
                problems.append("%s=%s not integral" % (v.name, x))
        for k, (coeffs, rhs, den) in enumerate(self.rows):
            total = sum(c * assignment[i] for i, c in coeffs)
            if total > rhs:
                problems.append("row %d: %s > %s"
                                % (k, Fraction(total, den), Fraction(rhs, den)))
        return problems


@dataclass
class SolveStats:
    nodes: int = 0
    lp_calls: int = 0
    pivots: int = 0
    probes: int = 0  # search trees run by ``maximize``, one per call
    infeasible_lps: int = 0  # LP relaxations that proved their box empty
    max_depth: int = 0  # branchings from the root to the deepest node solved
    max_tableau: tuple = (0, 0)  # (nrows, ncols) of the largest kernel call
    rounding_lps: int = 0  # LPs that rounded a fractional vertex, not nodes

    def note_tableau(self, nrows, ncols):
        self.max_tableau = max(self.max_tableau, (nrows, ncols),
                               key=lambda s: (s[0] * s[1], s[0]))


@dataclass
class SolveResult:
    """A solve's verdict, witness and stats.  ``best`` is an optimization's
    best integer threshold, None for a feasibility solve.  The search steps
    by integers, so ``best`` is the exact optimum when that is an integer,
    as in every covering and election model, and otherwise errs by less
    than 1 toward the worse side: minimizing x/2 over an integer x in
    [1, 3] gives 1, not 1/2."""

    feasible: bool
    assignment: dict | None
    stats: SolveStats = field(default_factory=SolveStats)
    best: int | None = None
