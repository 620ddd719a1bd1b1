"""ε-almost-covering for multiset multicover by shape decomposition.

Exact multiset multicover is hard even for two elements, but a small
additive slack buys tractability: each set is first *decomposed* into at
most m scaled vectors β·V whose entries live on a grid of multiples of
ε/2 (:func:`decompose`), then one integer variable per distinct grid
shape plus continuous per-element "miss" variables form a piecewise-linear
model whose solution covers every element up to a total shortfall below
ε·Σrequirements whenever an exact cover of the requested size exists
(:func:`almost_cover`).

The decomposition walks the set's multiplicities in ascending order,
growing a shape while consecutive multiplicities stay within a factor Y;
at a Y-factor jump the remaining entries are capped at Z times the last
small multiplicity, the capped vector is emitted, the emitted amounts are
subtracted, and the walk restarts at the jump.  All arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .covering import Types
from .emip import EmipConstraint, EmipModel, Variable, VarKind
from .milp.model import SolveStats, SolverInternalError
from .pipeline import minimize_budget
from .pwl import PwlFunction
from .rationals import exact, parse_rational


@dataclass(frozen=True)
class ApproxParams:
    """Grid constants for a target accuracy ε over an m-element universe.

    Z caps how far a shape entry may exceed the entry before a jump, and Y
    is the multiplicity ratio that triggers a jump.  They are chosen so
    that m/Z and Z·m³/(Y−Z) are each at most ε/4, which is what makes the
    final miss bound come out below ε·Σr.  ``epsilon`` is held as a
    Fraction even when it is integral, so that every division by it stays
    exact: with an int ε, ``ε / 4`` would be a float.
    """

    epsilon: Fraction
    m: int
    Z: int = field(init=False)
    Y: int = field(init=False)

    def __post_init__(self):
        epsilon = Fraction(parse_rational(self.epsilon))
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "m", int(self.m))
        if self.m < 1:
            raise ValueError("universe size must be at least 1")
        z = math.ceil(4 * self.m / epsilon)
        y = z + math.ceil(4 * z * self.m**3 / epsilon)
        object.__setattr__(self, "Z", z)
        object.__setattr__(self, "Y", y)
        assert Fraction(self.m, self.Z) <= epsilon / 4
        assert Fraction(self.Z * self.m**3, self.Y - self.Z) <= epsilon / 4

    @property
    def half_eps(self) -> Fraction:
        return self.epsilon / 2


@dataclass(frozen=True)
class EmittedVector:
    """One β·V piece of a decomposed set.

    ``shape`` entries are nonnegative multiples of ε/2; the multiset this
    vector actually contributes is the componentwise floor of β·shape
    (see :meth:`realized`), so contributions stay integral.
    """

    beta: int
    shape: tuple
    origin: int
    _realized: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_realized", tuple(
            math.floor(self.beta * s) for s in self.shape))

    def realized(self):
        return self._realized

    def to_json(self):
        return {
            "beta": str(self.beta),
            "shape": [str(s) for s in self.shape],
            "realized": list(self.realized()),
            "origin": self.origin,
        }


@dataclass(frozen=True)
class EmissionRecord:
    """Trace of one emission, for auditing the decomposition's guarantees.

    Positions refer to the ascending multiplicity order ``order`` (shared
    by all emissions of one set).  ``jump_pos`` is None for the final
    emission; otherwise ``prev_value``/``jump_before`` are the
    multiplicities around the jump when the vector was emitted and
    ``jump_after`` is what remains at the jump position afterwards (the
    next emission's β).
    """

    order: tuple
    start: int
    beta: int
    pre_shape: tuple
    shape: tuple
    jump_pos: int | None
    prev_value: int | None
    jump_before: int | None
    jump_after: int | None


def _as_multiplicity_vector(s, m):
    vec = [0] * m
    items = s.items() if isinstance(s, dict) else s
    for elem, mult in items:
        elem, mult = int(elem), int(mult)
        if not (0 <= elem < m):
            raise ValueError("element %d outside universe of size %d" % (elem, m))
        if mult < 0:
            raise ValueError("multiplicities must be nonnegative")
        vec[elem] += mult
    return vec


def decompose(s, params: ApproxParams, origin: int = 0):
    """Replace one multiset with at most m grid-shaped vectors."""
    return decompose_trace(s, params, origin)[0]


def decompose_trace(s, params: ApproxParams, origin: int = 0):
    """Like :func:`decompose`, also returning per-emission trace records."""
    m = params.m
    mult = _as_multiplicity_vector(s, m)
    order = tuple(sorted(range(m), key=lambda e: (mult[e], e)))
    vals = [mult[e] for e in order]
    original = list(vals)
    grid = params.half_eps

    vectors = []
    trace = []
    start = 0
    while start < m and vals[start] == 0:
        start += 1

    while start < m:
        beta = vals[start]
        pre = [0] * m
        pre[order[start]] = 1
        i = start + 1
        jumped = False
        while i < m:
            if vals[i] < params.Y * vals[i - 1]:
                pre[order[i]] = Fraction(vals[i], beta)
                i += 1
            else:
                cap = Fraction(params.Z * vals[i - 1], beta)
                for j in range(i, m):
                    pre[order[j]] = cap
                jumped = True
                break

        shape = tuple(exact(math.floor(v / grid) * grid) for v in pre)
        assert 0 <= min(shape) and max(shape) <= params.Y ** m
        vector = EmittedVector(beta, shape, origin)
        vectors.append(vector)

        prev_value = vals[i - 1] if jumped else None
        jump_before = vals[i] if jumped else None
        jump_after = None
        if jumped:
            realized = vector.realized()
            for j in range(m):
                vals[j] -= realized[order[j]]
                assert vals[j] >= 0
            jump_after = vals[i]
            assert jump_after > 0
        trace.append(
            EmissionRecord(
                order, start, beta, tuple(pre), shape,
                i if jumped else None, prev_value, jump_before, jump_after,
            )
        )
        if not jumped:
            break
        start = i

    assert len(vectors) <= m
    total = [0] * m
    for vector in vectors:
        for e, c in enumerate(vector.realized()):
            total[e] += c
    assert all(total[order[j]] <= original[j] for j in range(m))
    return vectors, trace


@dataclass
class AlmostCoverSolution:
    feasible: bool
    chosen: tuple = ()       # EmittedVector, the selected pieces
    coverage: tuple = ()     # per-element coverage achieved by `chosen`
    misses: tuple = ()       # per-element max(0, r_i - coverage_i), exact
    miss_total: int | None = None
    miss_bound: Fraction | None = None  # ε · Σ r_i
    origins: tuple = ()      # distinct source-set indices, sorted
    stats: SolveStats = field(default_factory=SolveStats)


def almost_cover(instance, epsilon, node_limit=None) -> AlmostCoverSolution:
    """Cover all requirements up to a total shortfall of ε·Σr, if possible,
    with at most the instance's budget of vectors (unit weights: its set
    count allowance).

    Infeasible when even the relaxed program is; otherwise the total miss
    is the exact minimum the decomposed program admits — in particular
    strictly below ε·Σr whenever the budget's worth of sets covers exactly.
    ``stats`` counts the search either way.
    """
    if any(w != 1 for w in instance.weights):
        raise ValueError("almost_cover needs unit weights")
    params = ApproxParams(parse_rational(epsilon), instance.m)

    vectors = []
    for idx in range(instance.n_sets):
        vectors.extend(decompose(instance.sets[idx], params, origin=idx))

    # by beta descending, ties in position order
    types = Types.of([v.shape for v in vectors], lambda pos: -vectors[pos].beta)
    n_groups = len(types.keys)
    requirements = instance.requirements
    total_req = sum(requirements)
    miss_cap = params.epsilon * total_req

    variables = types.counts("v")
    miss_base = n_groups
    variables += [
        Variable("miss%d" % i, VarKind.CONTINUOUS, 0, requirements[i])
        for i in range(instance.m)
    ]

    constraints = []
    if n_groups:
        constraints.append(EmipConstraint(
            lhs={j: 1 for j in range(n_groups)}, rhs={}, b=instance.budget))
    miss_row = len(constraints)
    constraints.append(
        EmipConstraint(
            lhs={miss_base + i: 1 for i in range(instance.m)}, rhs={}, b=miss_cap
        )
    )
    realized = [[vectors[pos].realized() for pos in members]
                for members in types.members]
    for i in range(instance.m):
        if requirements[i] == 0:
            continue
        gains = {}
        for j in range(n_groups):
            covered = [r[i] for r in realized[j]]
            if any(covered):
                gains[j] = PwlFunction.from_sorted_multiplicities(covered)
        gains[miss_base + i] = 1
        constraints.append(EmipConstraint(lhs={}, rhs=gains, b=-requirements[i]))

    model = EmipModel(tuple(variables), tuple(constraints))
    result = minimize_budget(model, miss_row, node_limit)
    if not result.feasible:
        return AlmostCoverSolution(False, stats=result.stats)

    chosen = [vectors[pos] for pos in types.take(result.assignment)]
    per_origin = {}
    for vector in chosen:
        acc = per_origin.setdefault(vector.origin, [0] * instance.m)
        for e, c in enumerate(vector.realized()):
            acc[e] += c
    coverage = [sum(acc[e] for acc in per_origin.values()) for e in range(instance.m)]
    for origin, acc in per_origin.items():
        full = _as_multiplicity_vector(instance.sets[origin], instance.m)
        if any(a > f for a, f in zip(acc, full)):
            raise SolverInternalError("chosen vectors of set %d exceed the set itself"
                                      % origin)

    misses = tuple(max(0, r - c) for r, c in zip(requirements, coverage))
    miss_total = sum(misses)
    if len(chosen) > instance.budget:
        raise SolverInternalError("more vectors chosen than the budget allows")
    if miss_total > miss_cap:
        raise SolverInternalError("realized misses exceed the programmed cap")
    return AlmostCoverSolution(True, tuple(chosen), tuple(coverage), misses, miss_total,
                               miss_cap, tuple(sorted(per_origin)), result.stats)


def decomposition_json(instance, epsilon):
    """All emitted vectors of an instance, JSON-ready (debugging aid)."""
    params = ApproxParams(parse_rational(epsilon), instance.m)
    out = []
    for idx in range(instance.n_sets):
        for vector in decompose(instance.sets[idx], params, origin=idx):
            out.append(vector.to_json())
    return {
        "epsilon": str(params.epsilon),
        "Z": params.Z,
        "Y": params.Y,
        "vectors": out,
    }
