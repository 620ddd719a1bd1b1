"""Plain mixed-integer linear models: variables, <=-rows, solve results."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ..emip import VarKind
from ..rationals import ZERO

__all__ = [
    "MilpVariable",
    "MilpModel",
    "SolveStats",
    "SolveResult",
    "ResourceExhausted",
    "SolverInternalError",
    "VarKind",
]


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
    lower: Fraction | None = ZERO
    upper: Fraction | None = None

    def __post_init__(self):
        if self.lower is not None:
            object.__setattr__(self, "lower", Fraction(self.lower))
        if self.upper is not None:
            object.__setattr__(self, "upper", Fraction(self.upper))


@dataclass(frozen=True)
class MilpModel:
    """Variables plus rows ``sum(a_i * x_i) <= rhs``.

    Rows are (coeffs, rhs) with coeffs a tuple of (variable index, value)
    pairs sorted by index.  Rows produced by the lowering step are integer
    after denominator clearing; the solver itself accepts any rationals.
    """

    variables: tuple
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        rows = []
        names = set()
        for v in self.variables:
            if v.name in names:
                raise ValueError("duplicate variable name %r" % v.name)
            names.add(v.name)
        n = len(self.variables)
        for coeffs, rhs in self.rows:
            rows.append(self.normalize_row(coeffs, rhs, n))
        object.__setattr__(self, "rows", tuple(rows))

    @staticmethod
    def normalize_row(coeffs, rhs, n_vars):
        """A row in model form: index-sorted (int, Fraction) pairs, Fraction rhs."""
        coeffs = tuple(sorted((int(i), Fraction(c)) for i, c in coeffs))
        for i, _ in coeffs:
            if not (0 <= i < n_vars):
                raise ValueError("row references unknown variable index %d" % i)
        return coeffs, Fraction(rhs)

    def with_rows(self, rows):
        """This model plus ``rows``, which must already be in model form.

        Neither the existing rows nor the variables are checked or copied
        again, so a caller that adds a row per solve pays only for that row.
        """
        model = object.__new__(MilpModel)
        object.__setattr__(model, "variables", self.variables)
        object.__setattr__(model, "rows", self.rows + tuple(rows))
        return model

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    def integer_indices(self):
        return [
            i for i, v in enumerate(self.variables) if v.kind is VarKind.INTEGER
        ]

    def check_assignment(self, assignment):
        """Exact violation list for a full assignment (index -> Fraction)."""
        problems = []
        for i, v in enumerate(self.variables):
            x = assignment[i]
            if v.lower is not None and x < v.lower:
                problems.append("%s=%s below lower bound %s" % (v.name, x, v.lower))
            if v.upper is not None and x > v.upper:
                problems.append("%s=%s above upper bound %s" % (v.name, x, v.upper))
            if v.kind is VarKind.INTEGER and Fraction(x).denominator != 1:
                problems.append("%s=%s not integral" % (v.name, x))
        for k, (coeffs, rhs) in enumerate(self.rows):
            total = sum((c * assignment[i] for i, c in coeffs), start=ZERO)
            if total > rhs:
                problems.append("row %d: %s > %s" % (k, total, rhs))
        return problems


@dataclass
class SolveStats:
    nodes: int = 0
    lp_calls: int = 0
    pivots: int = 0
    probes: int = 0  # threshold feasibility solves run by ``maximize``
    infeasible_lps: int = 0  # LP relaxations that proved their box empty

    def absorb(self, other: "SolveStats"):
        self.nodes += other.nodes
        self.lp_calls += other.lp_calls
        self.pivots += other.pivots
        self.probes += other.probes
        self.infeasible_lps += other.infeasible_lps


@dataclass
class SolveResult:
    feasible: bool
    assignment: dict | None
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def status(self) -> str:
        return "feasible" if self.feasible else "infeasible"
