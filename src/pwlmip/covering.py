"""Multiset multicover instances, the two exact covering solvers, and the
count-per-type reduction they share with :mod:`pwlmip.approx` and
:mod:`pwlmip.voting`.

An instance asks for a subfamily of multisets that covers every element x_l
at least r_l times within a budget.  Interchangeable items form a *type*
(:class:`Types`), and the model has one integer count per type: taking z
items of a type takes its z best members, so the type's cost or yield is
the prefix sum of its members' values, a convex or concave function of z.

* weighted multiset multicover (WSM): sets carry weights, the budget caps
  total weight.  A type is one exact multiset, its members cheapest first:
  z of them cover each element z times its multiplicity and cost the sum
  of the z smallest weights, a convex function.  There are at most 2^m - 1
  types in the set variant (all multiplicities one), and m bounds their
  number whenever the multiplicities are bounded, but there are as many as
  the sets themselves when they are not.

* uniform multiset multicover (UMM): each set covers its support uniformly
  with some multiplicity t, all weights are one, the budget caps the number
  of sets.  A type is one support, its members largest t first: z of them
  yield the sum of the z largest t values per supported element, a
  concave function.

Both solvers check feasibility or minimize the budget row, then take each
type's first members and re-check the cover exactly.
"""

from __future__ import annotations

from .emip import EmipConstraint, EmipModel, Variable, VarKind
from .milp.model import SolveStats, SolverInternalError
from .pipeline import minimize_budget, solve_emip
from .pwl import Shape, prefix_sum_term
from .rationals import (json_array, json_entries, json_format, parse_count,
                        parse_field, parse_integer)
from .records import Frozen, Record

FORMAT_NAME = "cover-v1"


class CoverInstance(Frozen):
    """Elements 0..m-1, multisets with weights, coverage requirements, budget.

    Per set, ``sets`` holds its (element, multiplicity) pairs, sorted, and
    ``weights`` its integer weight (all ones by default); per element,
    ``requirements`` holds its required coverage.
    """

    __slots__ = _fields = ("m", "sets", "weights", "requirements", "budget")

    def __init__(self, m, sets, requirements, budget, weights=None):
        object.__setattr__(self, "m", parse_count(m, "m"))
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
        weights = tuple(parse_count(w, "weights") for w in weights)
        if len(weights) != len(clean_sets):
            raise ValueError("need one weight per set")
        object.__setattr__(self, "weights", weights)
        requirements = tuple(parse_count(r, "requirements") for r in requirements)
        if len(requirements) != self.m:
            raise ValueError("need one requirement per element")
        object.__setattr__(self, "requirements", requirements)
        object.__setattr__(self, "budget", parse_count(budget, "budget"))

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
        json_format(obj, FORMAT_NAME, "cover")
        return cls(
            m=obj.get("m"),
            sets=[{parse_field("set %d" % k, parse_integer, e):
                   parse_field("set %d" % k, parse_integer, t) for e, t in s.items()}
                  for k, s in enumerate(json_entries(obj, "sets", "set"))],
            requirements=json_array(obj, "requirements"),
            budget=obj.get("budget"),
            weights=None if obj.get("weights") is None else json_array(obj, "weights"),
        )


class Types(Frozen):
    """Items grouped into types, one integer count per type.

    ``keys`` are the distinct type keys, sorted; ``members[j]`` holds type
    j's item indices, best first.  Taking z items of a type means taking
    its first z members, so a type is priced by one function of z: the
    prefix sums of its members' weights or yields, convex or concave.
    """

    __slots__ = _fields = ("keys", "members")

    def __init__(self, keys: tuple, members: tuple):
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "members", members)

    @classmethod
    def of(cls, keys, rank):
        """Item k is of type keys[k] (None: of no type); ``rank`` is the
        sort key of an item index, ties kept in index order."""
        groups = {}
        for k, key in enumerate(keys):
            if key is not None:
                groups.setdefault(key, []).append(k)
        ordered = sorted(groups)
        return cls(tuple(ordered),
                   tuple([tuple(sorted(groups[key], key=rank)) for key in ordered]))

    def counts(self, prefix):
        """One integer variable per type, from 0 to its member count."""
        return [Variable("%s%d" % (prefix, j), VarKind.INTEGER, 0, len(members))
                for j, members in enumerate(self.members)]

    def take(self, counts):
        """The first counts[j] members of each type j, type by type."""
        return [k for j, members in enumerate(self.members)
                for k in members[:counts[j]]]

    def solve(self, prefix, constraints, minimize_cost, node_limit):
        """Solve for one count per type (named ``prefix`` and its index)
        under ``constraints``, the budget row last and minimized on request.
        Returns the result and the items taken, sorted (none if infeasible)."""
        model = EmipModel(tuple(self.counts(prefix)), tuple(constraints))
        result = (minimize_budget(model, len(constraints) - 1, node_limit)
                  if minimize_cost else solve_emip(model, node_limit))
        taken = tuple(sorted(self.take(result.assignment))) if result.feasible else ()
        return result, taken


class CoverSolution(Record):
    __slots__ = _fields = ("feasible", "chosen", "cost", "coverage", "stats")

    def __init__(self, feasible: bool, chosen: tuple = (), cost: int | None = None,
                 coverage: tuple = (), stats: SolveStats | None = None):
        self.feasible = feasible
        self.chosen = chosen
        self.cost = cost
        self.coverage = coverage
        self.stats = SolveStats() if stats is None else stats


def solve_wsm(instance: CoverInstance, minimize_cost=False, node_limit=None) -> CoverSolution:
    """Weighted multiset multicover: one integer variable per distinct multiset.

    Empty sets cover nothing and are dropped.  The model grows with the
    number of distinct multisets, which m bounds only when the
    multiplicities are bounded.
    """
    weights = instance.weights
    types = Types.of([s or None for s in instance.sets], weights.__getitem__)
    covering = [{} for _ in range(instance.m)]
    for j, s in enumerate(types.keys):
        for elem, mult in s:
            covering[elem][j] = -mult
    constraints = [
        EmipConstraint(lhs=covering[elem], rhs={}, b=-r)
        for elem, r in enumerate(instance.requirements) if r
    ]
    costs = {
        j: prefix_sum_term([weights[k] for k in members], Shape.CONVEX)
        for j, members in enumerate(types.members)
    }
    constraints.append(EmipConstraint(lhs=costs, rhs={}, b=instance.budget))
    return _solve(instance, types, constraints, minimize_cost, node_limit)


def solve_umm(instance: CoverInstance, minimize_cost=False, node_limit=None) -> CoverSolution:
    """Uniform multiset multicover; the budget caps the number of sets."""
    if not instance.is_uniform_variant:
        raise ValueError("uniform multiset multicover needs per-set uniform multiplicities")
    if any(w != 1 for w in instance.weights):
        raise ValueError("uniform multiset multicover needs unit weights")
    n = instance.n_sets
    mults = [instance.uniform_multiplicity(k) for k in range(n)]
    types = Types.of([instance.support(k) or None for k in range(n)],
                     lambda k: -mults[k])
    yields = [
        prefix_sum_term([mults[k] for k in members], Shape.CONCAVE)
        for members in types.members
    ]
    constraints = []
    for elem, r in enumerate(instance.requirements):
        if r:
            gain = {j: yields[j] for j, support in enumerate(types.keys)
                    if elem in support}
            constraints.append(EmipConstraint(lhs={}, rhs=gain, b=-r))
    count = {j: 1 for j in range(len(types.keys))}
    constraints.append(EmipConstraint(lhs=count, rhs={}, b=instance.budget))
    return _solve(instance, types, constraints, minimize_cost, node_limit)


def _solve(instance, types, constraints, minimize_cost, node_limit):
    """Solve for one count per type (:meth:`Types.solve`) and re-check the
    cover its items make."""
    result, chosen = types.solve("z", constraints, minimize_cost, node_limit)
    if not result.feasible:
        return CoverSolution(False, stats=result.stats)
    coverage = instance.coverage_of(chosen)
    cost = sum(instance.weights[k] for k in chosen)
    if any(c < r for c, r in zip(coverage, instance.requirements)):
        raise SolverInternalError("realized cover misses a requirement")
    if cost > instance.budget:
        raise SolverInternalError("realized cover exceeds the budget")
    return CoverSolution(True, chosen, cost, coverage, result.stats)
