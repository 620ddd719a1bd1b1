"""Multiset multicover instances and the two exact covering solvers.

An instance asks for a subfamily of multisets that covers every element x_l
at least r_l times within a budget.  Two shapes reduce to small
piecewise-linear models over one integer variable per group of sets:

* weighted multiset multicover (WSM): sets carry weights, the budget caps
  total weight.  Sets are grouped by their exact multiset, so taking z sets
  from a group covers each element z times its multiplicity and costs the
  sum of the z cheapest members, a convex function of z.  The model has
  one variable per distinct multiset: at most 2^m - 1 for the set variant
  (all multiplicities one), and bounded in m whenever the multiplicities
  are, but as many as the sets themselves when they are not.

* uniform multiset multicover (UMM): each set covers its support uniformly
  with some multiplicity t, all weights are one, the budget caps the number
  of sets.  Sets are grouped into *type families* by support; taking z sets
  from a family yields the sum of the z largest t values per supported
  element, a concave function of z.

Both solvers hand the model to the lowering pipeline and then realize the
group counts as concrete set choices, re-checking the cover exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .emip import EmipConstraint, EmipModel, Objective, Variable, VarKind
from .milp.model import SolveStats, SolverInternalError
from .pipeline import maximize_emip, minimize_budget, solve_emip
from .pwl import PwlFunction
from .rationals import parse_integer

FORMAT_NAME = "cover-v1"


@dataclass(frozen=True)
class CoverInstance:
    """Elements 0..m-1, multisets with weights, coverage requirements, budget."""

    m: int
    sets: tuple          # per set: tuple of (element, multiplicity), sorted
    weights: tuple       # per set: integer weight (defaults to all ones)
    requirements: tuple  # per element: required coverage
    budget: int

    def __init__(self, m, sets, requirements, budget, weights=None):
        object.__setattr__(self, "m", parse_integer(m))
        clean_sets = []
        for k, s in enumerate(sets):
            items = sorted(s.items()) if isinstance(s, dict) else sorted(s)
            entries = []
            for elem, mult in items:
                elem, mult = parse_integer(elem), parse_integer(mult)
                if not (0 <= elem < self.m):
                    raise ValueError("set %d covers unknown element %d" % (k, elem))
                if mult < 0:
                    raise ValueError("set %d has negative multiplicity" % k)
                if mult:
                    entries.append((elem, mult))
            clean_sets.append(tuple(entries))
        object.__setattr__(self, "sets", tuple(clean_sets))
        if weights is None:
            weights = (1,) * len(clean_sets)
        weights = tuple(parse_integer(w) for w in weights)
        if len(weights) != len(clean_sets):
            raise ValueError("need one weight per set")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "weights", weights)
        requirements = tuple(parse_integer(r) for r in requirements)
        if len(requirements) != self.m:
            raise ValueError("need one requirement per element")
        if any(r < 0 for r in requirements):
            raise ValueError("requirements must be nonnegative")
        object.__setattr__(self, "requirements", requirements)
        object.__setattr__(self, "budget", parse_integer(budget))
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")

    @property
    def n_sets(self) -> int:
        return len(self.sets)

    def support(self, k):
        return tuple(elem for elem, _ in self.sets[k])

    def uniform_multiplicity(self, k):
        """The common multiplicity of set k, or None if not uniform."""
        mults = {mult for _, mult in self.sets[k]}
        if not mults:
            return 0
        if len(mults) == 1:
            return next(iter(mults))
        return None

    @property
    def is_uniform_variant(self) -> bool:
        return all(self.uniform_multiplicity(k) is not None for k in range(self.n_sets))

    def coverage_of(self, chosen):
        """Exact coverage vector achieved by a list of set indices."""
        cov = [0] * self.m
        for k in chosen:
            for elem, mult in self.sets[k]:
                cov[elem] += mult
        return tuple(cov)

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {
            "format": FORMAT_NAME,
            "m": self.m,
            "sets": [{str(e): t for e, t in s} for s in self.sets],
            "weights": list(self.weights),
            "requirements": list(self.requirements),
            "budget": self.budget,
        }

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError("cover instance must be a JSON object")
        if obj.get("format") != FORMAT_NAME:
            raise ValueError(
                "unsupported cover format %r (expected %r)"
                % (obj.get("format"), FORMAT_NAME)
            )
        sets = []
        for s in obj.get("sets", ()):
            sets.append({parse_integer(e): t for e, t in s.items()})
        return cls(
            m=obj["m"],
            sets=sets,
            requirements=obj["requirements"],
            budget=obj["budget"],
            weights=obj.get("weights"),
        )


@dataclass(frozen=True)
class TypeFamily:
    support: tuple   # sorted element indices
    members: tuple   # set indices, instance order


def type_families(instance: CoverInstance):
    """Group sets by support; empty supports are dropped (they cover nothing)."""
    groups = {}
    for k in range(instance.n_sets):
        sup = instance.support(k)
        if not sup:
            continue
        groups.setdefault(sup, []).append(k)
    return [TypeFamily(sup, tuple(groups[sup])) for sup in sorted(groups)]


@dataclass
class CoverSolution:
    feasible: bool
    chosen: tuple = ()
    cost: int | None = None
    coverage: tuple = ()
    stats: SolveStats = field(default_factory=SolveStats)


def solve_wsm(instance: CoverInstance, minimize_cost=False, node_limit=None) -> CoverSolution:
    """Weighted multiset multicover: one integer variable per distinct multiset.

    Empty sets cover nothing and are dropped.  The model grows with the
    number of distinct multisets, which m bounds only when the
    multiplicities are bounded.
    """
    groups = {}
    for k, s in enumerate(instance.sets):
        if s:
            groups.setdefault(s, []).append(k)
    shapes = sorted(groups)
    members_sorted = [
        tuple(sorted(groups[s], key=lambda k: (instance.weights[k], k)))
        for s in shapes
    ]
    costs = [
        PwlFunction.from_sorted_weights([instance.weights[k] for k in groups[s]])
        for s in shapes
    ]

    variables = tuple(
        Variable("z%d" % i, VarKind.INTEGER, 0, len(groups[s]))
        for i, s in enumerate(shapes)
    )
    covering = [{} for _ in range(instance.m)]
    for i, s in enumerate(shapes):
        for elem, mult in s:
            covering[elem][i] = -mult
    constraints = [
        EmipConstraint(lhs=covering[elem], rhs={}, b=-r)
        for elem, r in enumerate(instance.requirements) if r
    ]
    budget_terms = {i: costs[i] for i in range(len(shapes))}
    constraints.append(EmipConstraint(lhs=budget_terms, rhs={}, b=instance.budget))
    model = EmipModel(variables, tuple(constraints))

    result = (minimize_budget(model, len(constraints) - 1, node_limit)
              if minimize_cost else solve_emip(model, node_limit))
    return _realized_solution(instance, members_sorted, result.assignment, result.stats)


def solve_umm(instance: CoverInstance, minimize_cost=False, node_limit=None) -> CoverSolution:
    """Uniform multiset multicover; the budget caps the number of sets."""
    if not instance.is_uniform_variant:
        raise ValueError("uniform multiset multicover needs per-set uniform multiplicities")
    if any(w != 1 for w in instance.weights):
        raise ValueError("uniform multiset multicover needs unit weights")
    families = type_families(instance)
    members_sorted = [
        tuple(
            sorted(
                fam.members,
                key=lambda k: (-instance.uniform_multiplicity(k), k),
            )
        )
        for fam in families
    ]
    yields = [
        PwlFunction.from_sorted_multiplicities(
            [instance.uniform_multiplicity(k) for k in fam.members]
        )
        for fam in families
    ]

    variables = tuple(
        Variable("z%d" % i, VarKind.INTEGER, 0, len(fam.members))
        for i, fam in enumerate(families)
    )
    constraints = []
    for elem in range(instance.m):
        r = instance.requirements[elem]
        if r == 0:
            continue
        gain = {i: yields[i] for i, fam in enumerate(families) if elem in fam.support}
        constraints.append(EmipConstraint(lhs={}, rhs=gain, b=-r))
    count_terms = {i: 1 for i in range(len(families))}
    constraints.append(EmipConstraint(lhs=count_terms, rhs={}, b=instance.budget))
    objective = Objective("min", count_terms) if minimize_cost else None
    model = EmipModel(variables, tuple(constraints), objective=objective)

    if minimize_cost:
        result = maximize_emip(model, node_limit=node_limit)
    else:
        result = solve_emip(model, node_limit)
    return _realized_solution(instance, members_sorted, result.assignment, result.stats)


def _realized_solution(instance, members_sorted, counts, stats):
    """Take the first z members of each family's ranked list; re-check."""
    if counts is None:
        return CoverSolution(False, stats=stats)
    chosen = tuple(sorted(
        k for i, members in enumerate(members_sorted)
        for k in members[:int(counts[i])]
    ))
    coverage = instance.coverage_of(chosen)
    cost = sum(instance.weights[k] for k in chosen)
    if any(c < r for c, r in zip(coverage, instance.requirements)):
        raise SolverInternalError("realized cover misses a requirement")
    if cost > instance.budget:
        raise SolverInternalError("realized cover exceeds the budget")
    return CoverSolution(True, chosen, cost, coverage, stats)
