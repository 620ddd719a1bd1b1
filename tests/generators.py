"""Shared random-instance generators and independent reference checkers.

Everything here is used both by the per-module tests and by the acceptance
suite.  The checkers deliberately avoid the code paths they are checking:
``reference_eval`` walks pieces instead of using the closed form, and
``grid_feasible`` enumerates integer points instead of solving anything,
and ``witness_embed`` builds a lowered point from the witness formulas of
``pwlmip.reduction`` instead of solving the lowered model.
"""

from fractions import Fraction
from itertools import product

from pwlmip.covering import CoverInstance
from pwlmip.emip import EmipConstraint, EmipModel, Variable, VarKind
from pwlmip.pwl import PwlFunction, Shape
from pwlmip.voting import ApprovalElection, OrdinalElection, OrdinalVoter, Voter

ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# independent piecewise-linear evaluation
# ---------------------------------------------------------------------------


def reference_eval(fn, x):
    """Evaluate by locating the piece and walking segment by segment from 0.

    This never touches the closed-form formula: starting from the anchored
    value at 0 it accumulates (length * slope) across every full piece
    between 0 and x, then moves the remaining partial distance.
    """
    x = Fraction(x)
    bps = fn.breakpoints
    val = fn.value_at_zero
    k = fn.piece_index(ZERO)
    if x >= 0:
        left = ZERO
        while True:
            right_end = bps[k] if k < len(bps) else None
            if right_end is None or x <= right_end:
                return val + (x - left) * fn.slopes[k]
            val += (right_end - left) * fn.slopes[k]
            left = right_end
            k += 1
    right = ZERO
    while True:
        left_end = bps[k - 1] if k > 0 else None
        if left_end is None or x > left_end:
            return val - (right - x) * fn.slopes[k]
        val -= (right - left_end) * fn.slopes[k]
        right = left_end
        k -= 1


def chord_ok(fn, x1, x2, x3):
    """The defining chord inequality at x1 < x2 < x3 (exact, no division)."""
    mid = fn.eval(x2) * (x3 - x1)
    ends = fn.eval(x1) * (x3 - x2) + fn.eval(x3) * (x2 - x1)
    if fn.is_linear:
        return mid == ends
    if fn.shape is Shape.CONVEX:
        return mid <= ends
    return mid >= ends


# ---------------------------------------------------------------------------
# random rationals and piecewise functions
# ---------------------------------------------------------------------------


def random_fraction(rng, lo, hi, max_den=4):
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_pwl(rng, shape=None, max_pieces=3, lo=-5, hi=5, allow_negative_bps=True):
    """A random strictly convex or concave function with rational data."""
    if shape is None:
        shape = rng.choice((Shape.CONVEX, Shape.CONCAVE))
    n_bps = rng.randint(0, max_pieces - 1)
    bp_lo = lo if allow_negative_bps else 0
    bps = set()
    while len(bps) < n_bps:
        bps.add(random_fraction(rng, bp_lo, hi))
    bps = tuple(sorted(bps))
    slopes = sorted(
        {random_fraction(rng, lo, hi) for _ in range(n_bps + 1)},
        reverse=shape is Shape.CONCAVE,
    )
    while len(slopes) < n_bps + 1:
        step = random_fraction(rng, 1, 3)
        slopes.append(slopes[-1] + (step if shape is Shape.CONVEX else -step))
    v0 = random_fraction(rng, lo, hi)
    return PwlFunction(shape, v0, bps, tuple(slopes))


# ---------------------------------------------------------------------------
# random small all-integer models and their exhaustive feasibility
# ---------------------------------------------------------------------------


def random_grid_model(rng, max_vars=3, max_cons=3, max_pieces=3, with_objective=False):
    """A small all-integer model with bounds of magnitude at most 6.

    Variables carrying a transformation get nonnegative lower bounds (the
    canonical-form requirement); purely linear variables may dip below zero
    so the LP's shift of finite lower bounds gets exercised.  Functions may
    have nonzero values at zero and negative breakpoints so normalization
    has real work to do.
    """
    n = rng.randint(1, max_vars)
    n_cons = rng.randint(1, max_cons)

    constraints = []
    transformed = set()
    specs = []
    for _ in range(n_cons):
        lhs = {}
        rhs = {}
        for idx in rng.sample(range(n), rng.randint(0, min(n, 2))):
            if rng.random() < 0.6:
                fn = random_pwl(rng, Shape.CONVEX, max_pieces)
                transformed.add(idx)
            else:
                fn = PwlFunction.linear(random_fraction(rng, -4, 4))
            lhs[idx] = fn
        for idx in rng.sample(range(n), rng.randint(0, min(n, 2))):
            if idx in lhs:
                continue
            if rng.random() < 0.5:
                fn = random_pwl(rng, Shape.CONCAVE, max_pieces)
                transformed.add(idx)
            else:
                fn = PwlFunction.linear(random_fraction(rng, -4, 4))
            rhs[idx] = fn
        b = random_fraction(rng, -6, 10)
        specs.append((lhs, rhs, b))

    variables = []
    for i in range(n):
        if i in transformed:
            lower = rng.randint(0, 2)
        else:
            lower = rng.randint(-6, 2)
        upper = min(6, lower + rng.randint(0, 5))
        variables.append(Variable("x%d" % i, VarKind.INTEGER, lower, upper))

    for lhs, rhs, b in specs:
        constraints.append(EmipConstraint(lhs=lhs, rhs=rhs, b=b))

    objective = None
    if with_objective:
        from pwlmip.emip import Objective

        coeffs = {i: rng.randint(-3, 3) for i in range(n)}
        objective = Objective(rng.choice(("max", "min")), coeffs)
    return EmipModel(tuple(variables), tuple(constraints), objective)


def iter_grid(model):
    """Every integer assignment within the (finite) variable bounds."""
    axes = []
    for v in model.variables:
        lo = int(v.lower.__ceil__())
        hi = int(v.upper.__floor__())
        axes.append(range(lo, hi + 1))
    for point in product(*axes):
        yield {i: Fraction(x) for i, x in enumerate(point)}


def satisfies(model, assignment):
    """Exact check of bounds, integrality, and every constraint."""
    for i, v in enumerate(model.variables):
        x = assignment[i]
        if x < v.lower or (v.upper is not None and x > v.upper):
            return False
        if v.kind is VarKind.INTEGER and Fraction(x).denominator != 1:
            return False
    return all(cons.holds(assignment) for cons in model.constraints)


def grid_feasible(model):
    """Exhaustive feasibility of an all-integer, box-bounded model."""
    for point in iter_grid(model):
        if all(cons.holds(point) for cons in model.constraints):
            return True, point
    return False, None


def grid_best(model):
    """Exhaustive optimum of the model's linear objective, or None."""
    best = None
    sense = model.objective.sense
    coeffs = dict(model.objective.coeffs)
    for point in iter_grid(model):
        if not all(cons.holds(point) for cons in model.constraints):
            continue
        value = sum(c * point[i] for i, c in coeffs.items())
        if best is None:
            best = value
        elif sense == "max":
            best = max(best, value)
        else:
            best = min(best, value)
    return best


def witness_embed(model, lmap, assignment):
    """Extend a source-model assignment to the lowered variables.

    Sets w = f(x), u = g(x) for a shared block (an inlined one has no
    such column), and every auxiliary to max(0, x - rho); the result satisfies the lowered model whenever the source point satisfies
    the source model.
    """
    full = {i: Fraction(assignment[i]) for i in range(len(model.variables))}
    for (j, side, idx), term in lmap.terms:
        x = full[idx]
        if term.bound_var is not None:
            full[term.bound_var] = term.fn.eval(x)
        for aux, rho in zip(term.aux_vars, term.fn.breakpoints):
            full[aux] = max(ZERO, x - rho)
    return full


# ---------------------------------------------------------------------------
# random covering instances
# ---------------------------------------------------------------------------


def random_set_variant(rng, max_sets=12, max_m=4, max_weight=10):
    """A random weighted set multicover instance."""
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_sets)
    sets = []
    for _ in range(n):
        size = rng.randint(0, m)
        sets.append({e: 1 for e in rng.sample(range(m), size)})
    weights = [rng.randint(0, max_weight) for _ in range(n)]
    requirements = [rng.randint(0, 3) for _ in range(m)]
    budget = rng.randint(0, max(1, sum(weights) // 2))
    return CoverInstance(m, sets, requirements, budget, weights)


def random_uniform(rng, max_sets=12, max_m=3, max_t=5):
    """A random uniform multiset multicover instance (unit weights)."""
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_sets)
    sets = []
    for _ in range(n):
        size = rng.randint(0, m)
        t = rng.randint(1, max_t)
        sets.append({e: t for e in rng.sample(range(m), size)})
    requirements = [rng.randint(0, 8) for _ in range(m)]
    budget = rng.randint(0, n)
    return CoverInstance(m, sets, requirements, budget)


def random_exact_cover_mmc(rng, max_sets=10, max_m=3, max_mult=5, max_k=4):
    """A multiset multicover instance that some K sets cover exactly.

    The requirements are the combined coverage of K randomly chosen sets and
    the budget is K, so an exact K-set cover is guaranteed by construction
    (and certified independently by the brute-force oracle in the tests).
    Instances are redrawn until the total requirement is positive.
    """
    while True:
        m = rng.randint(1, max_m)
        n = rng.randint(2, max_sets)
        sets = []
        for _ in range(n):
            sets.append({e: rng.randint(0, max_mult) for e in range(m)})
        k = rng.randint(1, min(max_k, n))
        chosen = rng.sample(range(n), k)
        instance = CoverInstance(
            m, sets, [0] * m, k
        )
        requirements = instance.coverage_of(chosen)
        if sum(requirements) == 0:
            continue
        return CoverInstance(m, sets, requirements, k), tuple(sorted(chosen))


# ---------------------------------------------------------------------------
# random elections
# ---------------------------------------------------------------------------

_NAMES = ("p", "a", "b", "c", "d", "e")


def random_approval(rng, variant="priced", max_voters=10, max_cands=4,
                    max_price=8, with_pool=False):
    """A random approval election; ``variant`` fixes prices or weights."""
    m = rng.randint(2, max_cands)
    candidates = _NAMES[:m]
    budget_scale = 0

    def voter():
        nonlocal budget_scale
        size = rng.randint(0, m)
        approved = rng.sample(candidates, size)
        if variant == "priced":
            price = rng.randint(1, max_price)
            budget_scale += price
            return Voter(approved, price=price)
        weight = rng.randint(1, max_price)
        budget_scale += 1
        return Voter(approved, weight=weight)

    n = rng.randint(1, max_voters if not with_pool else max_voters // 2 + 1)
    voters = [voter() for _ in range(n)]
    pool = ()
    if with_pool:
        pool = [voter() for _ in range(rng.randint(0, max_voters // 2 + 1))]
    budget = rng.randint(0, max(1, budget_scale // 2))
    return ApprovalElection(candidates, voters, budget, pool)


def random_ordinal(rng, vector_kind="borda", max_voters=9, m=None, max_price=8):
    """A random ordinal election under Borda or 2-approval scoring."""
    if m is None:
        m = rng.choice((3, 4))
    candidates = _NAMES[:m]
    if vector_kind == "borda":
        vector = tuple(range(m - 1, -1, -1))
    elif vector_kind == "2-approval":
        vector = (1, 1) + (0,) * (m - 2)
    else:
        raise ValueError(vector_kind)
    n = rng.randint(1, max_voters)
    voters = []
    total = 0
    for _ in range(n):
        ranking = list(candidates)
        rng.shuffle(ranking)
        price = rng.randint(1, max_price)
        total += price
        voters.append(OrdinalVoter(ranking, price))
    budget = rng.randint(0, max(1, total // 2))
    return OrdinalElection(candidates, voters, vector, budget)
