"""Covering instances and the two polynomial multicover solvers."""

import random

import pytest

from generators import (
    random_exact_cover_mmc,
    random_ordinal,
    random_set_variant,
    random_uniform,
)
from pwlmip import pipeline
from pwlmip.approx import ApproxParams, almost_cover, decompose
from pwlmip.covering import (
    CoverInstance,
    Types,
    solve_umm,
    solve_wsm,
)
from pwlmip.emip import term_value
from pwlmip.milp import ResourceExhausted
from pwlmip.oracle import OracleBudget, brute_cover, gen_hard_instances
from pwlmip.pwl import PwlFunction
from pwlmip.voting import solve_scoring_ccdv


# ---------------------------------------------------------------------------
# instance plumbing
# ---------------------------------------------------------------------------


def test_instance_normalizes_sets():
    inst = CoverInstance(3, [{2: 1, 0: 2, 1: 0}], [0, 0, 0], 1)
    assert inst.sets == (((0, 2), (2, 1)),)  # sorted, zero multiplicity gone
    assert inst.support(0) == (0, 2)
    assert inst.weights == (1,)


def test_instance_validation():
    with pytest.raises(ValueError, match="unknown element"):
        CoverInstance(2, [{5: 1}], [0, 0], 1)
    with pytest.raises(ValueError, match="negative multiplicity"):
        CoverInstance(2, [{0: -1}], [0, 0], 1)
    with pytest.raises(ValueError, match="one weight per set"):
        CoverInstance(2, [{0: 1}], [0, 0], 1, weights=[1, 2])
    with pytest.raises(ValueError, match="weights must be nonnegative"):
        CoverInstance(2, [{0: 1}], [0, 0], 1, weights=[-1])
    with pytest.raises(ValueError, match="one requirement per element"):
        CoverInstance(2, [{0: 1}], [0], 1)
    with pytest.raises(ValueError, match="requirements must be nonnegative"):
        CoverInstance(2, [{0: 1}], [0, -1], 1)
    with pytest.raises(ValueError, match="budget"):
        CoverInstance(2, [{0: 1}], [0, 0], -1)


def test_instance_refuses_non_integral_counts():
    blob = CoverInstance(2, [{0: 1, 1: 1}], [1, 1], 1).to_json()
    for key, bad in (("budget", 1.9), ("budget", "3/2"), ("budget", True),
                     ("m", 2.5), ("requirements", [1, 0.5]),
                     ("weights", [False]), ("sets", [{"0": 1, "1.5": 1}]),
                     ("sets", [{"0": "1/2"}])):
        with pytest.raises(ValueError, match="expected an integer"):
            CoverInstance.from_json(dict(blob, **{key: bad}))
    # integral values in other spellings are still read exactly
    inst = CoverInstance.from_json(dict(blob, budget="4/2", m=2.0))
    assert inst.budget == 2 and type(inst.budget) is int and inst.m == 2


def test_variant_predicates_and_uniform_multiplicity():
    inst = CoverInstance(2, [{0: 1, 1: 1}, {0: 3, 1: 3}, {0: 2, 1: 1}, {}],
                         [0, 0], 1)
    assert inst.uniform_multiplicity(0) == 1
    assert inst.uniform_multiplicity(1) == 3
    assert inst.uniform_multiplicity(2) is None
    assert inst.uniform_multiplicity(3) == 0
    assert not inst.is_uniform_variant
    assert CoverInstance(2, [{0: 4, 1: 4}, {1: 2}], [0, 0], 1).is_uniform_variant


def test_coverage_of():
    inst = CoverInstance(2, [{0: 2}, {0: 1, 1: 3}], [0, 0], 2)
    assert inst.coverage_of([]) == (0, 0)
    assert inst.coverage_of([0, 1]) == (3, 3)
    assert inst.coverage_of([1, 1]) == (2, 6)  # duplicates count twice


def test_json_round_trip():
    inst = CoverInstance(3, [{0: 2, 2: 1}, {}, {1: 5}], [1, 0, 2], 4,
                         weights=[3, 0, 7])
    assert CoverInstance.from_json(inst.to_json()) == inst
    with pytest.raises(ValueError, match="format"):
        CoverInstance.from_json({"m": 1})
    with pytest.raises(ValueError, match="^cover must be a JSON object$"):
        CoverInstance.from_json(17)


def test_type_families_group_by_support():
    inst = CoverInstance(
        2, [{0: 1}, {0: 1, 1: 1}, {0: 1}, {}, {1: 1}], [0, 0], 1
    )
    types = Types.of([inst.support(k) or None for k in range(inst.n_sets)],
                     lambda k: 0)
    assert list(zip(types.keys, types.members)) == [
        ((0,), (0, 2)), ((0, 1), (1,)), ((1,), (4,)),
    ]  # the empty set is dropped


def test_types_rank_members_and_take_in_type_order():
    types = Types.of(["b", None, "a", "b", "b", "a"],
                     [0, 9, 4, 1, 1, 2].__getitem__)
    assert types.keys == ("a", "b")
    assert types.members == ((5, 2), (0, 3, 4))  # ties 3 and 4 by index
    assert [(v.name, v.lower, v.upper) for v in types.counts("z")] == [
        ("z0", 0, 2), ("z1", 0, 3)]
    # type by type, each type's members best first, not sorted
    assert types.take({0: 2, 1: 1, 2: 7}) == [5, 2, 0]


def _solved_types(monkeypatch, solve):
    """The one Types a solve grouped its items by, and the model it built."""
    made, models = [], []
    of = Types.of.__func__

    def spy(cls, keys, rank):
        made.append(of(cls, keys, rank))
        return made[-1]

    def capture(model):
        models.append(model)
        return real_lower(model)

    real_lower = pipeline.lower
    with monkeypatch.context() as patch:
        patch.setattr(Types, "of", classmethod(spy))
        patch.setattr(pipeline, "lower", capture)
        solve()
    (types,), (model,) = made, models
    return types, model


def _assert_prefix_sums(types, model, prefix, rank, terms, value):
    """Type j's count is ``prefix``j, its members are sorted by ``rank``
    with ties in index order, and every term ``terms`` gives it (one per
    row; a coefficient when it is linear) is at z the sum of ``value`` over
    its first z members.

    Returns how many functions of several pieces were checked, and how
    many rank ties were met."""
    checked = ties = 0
    for j, members in enumerate(types.members):
        var = model.variables[j]
        assert (var.name, var.lower, var.upper) == (
            "%s%d" % (prefix, j), 0, len(members))
        assert list(members) == sorted(members, key=lambda k: (rank(k), k))
        ties += sum(rank(a) == rank(b) for a, b in zip(members, members[1:]))
        for row, term in terms(j):
            for z in range(len(members) + 1):
                assert term_value(term, z) == sum(value(row, k)
                                                  for k in members[:z])
            checked += isinstance(term, PwlFunction)
    return checked, ties


def test_each_type_prices_the_prefix_sums_of_its_members(monkeypatch):
    """WSM weights, UMM multiplicities per element, scoring-deletion prices
    and almost-cover realized coverage: a type's function at count z is the
    sum over its first z members, which are ranked best first."""
    rng = random.Random(0xC64)
    totals = dict.fromkeys(("wsm", "umm", "scoring", "approx"), (0, 0))

    def tally(kind, *args):
        checked, ties = _assert_prefix_sums(*args)
        totals[kind] = (totals[kind][0] + checked, totals[kind][1] + ties)

    for n in range(12):
        inst = random_set_variant(rng, max_sets=10, max_m=3, max_weight=4)
        types, model = _solved_types(monkeypatch, lambda: solve_wsm(
            inst, minimize_cost=n % 2))
        budget = model.constraints[-1]
        tally("wsm", types, model, "z", inst.weights.__getitem__,
              lambda j: [(None, dict(budget.lhs)[j])],
              lambda row, k: inst.weights[k])

        inst = random_uniform(rng, max_sets=10, max_m=3, max_t=3)
        types, model = _solved_types(monkeypatch, lambda: solve_umm(
            inst, minimize_cost=n % 2))
        elems = [e for e, r in enumerate(inst.requirements) if r]
        rows = [dict(c.rhs) for c in model.constraints[:-1]]
        tally("umm", types, model, "z", lambda k: -inst.uniform_multiplicity(k),
              lambda j: [(e, row[j]) for e, row in zip(elems, rows) if j in row],
              lambda e, k: dict(inst.sets[k]).get(e, 0))

        election = random_ordinal(rng, max_voters=9, max_price=3)
        prices = [v.price for v in election.voters]
        types, model = _solved_types(monkeypatch, lambda: solve_scoring_ccdv(
            election, minimize_cost=n % 2))
        budget = model.constraints[-1]
        tally("scoring", types, model, "d", prices.__getitem__,
              lambda j: [(None, dict(budget.lhs)[j])],
              lambda row, k: prices[k])

        inst, _ = random_exact_cover_mmc(rng, max_sets=8, max_m=3, max_mult=4)
        params = ApproxParams(1, inst.m)
        vectors = [v for k, s in enumerate(inst.sets)
                   for v in decompose(s, params, origin=k)]
        types, model = _solved_types(monkeypatch, lambda: almost_cover(inst, 1))
        elems = [e for e, r in enumerate(inst.requirements) if r]
        rows = [dict(c.rhs) for c in model.constraints[2:]]
        tally("approx", types, model, "v", lambda k: -vectors[k].beta,
              lambda j: [(e, row[j]) for e, row in zip(elems, rows) if j in row],
              lambda e, k: vectors[k].realized()[e])
    # every kind met functions of several pieces and rank ties
    assert all(checked and ties for checked, ties in totals.values()), totals


# ---------------------------------------------------------------------------
# weighted set multicover
# ---------------------------------------------------------------------------


def test_wsm_worked_example_minimum_cost():
    # cheapest cover of both elements at cost 3: the single two-element
    # set, the integral vertex the root LP ends at, and not sets 0 and 2,
    # which cost 3 as well
    inst = CoverInstance(
        2, [{0: 1}, {0: 1, 1: 1}, {1: 1}], [1, 1], 3, weights=[1, 3, 2]
    )
    sol = solve_wsm(inst, minimize_cost=True)
    assert sol.feasible
    assert sol.cost == 3
    assert sol.chosen == (1,)
    assert sol.coverage == (1, 1)
    answer = brute_cover(inst)
    assert answer.feasible and answer.best_cost == 3


def test_wsm_feasibility_only_respects_budget():
    inst = CoverInstance(
        2, [{0: 1}, {0: 1, 1: 1}, {1: 1}], [1, 1], 3, weights=[1, 3, 2]
    )
    sol = solve_wsm(inst)
    assert sol.feasible
    assert sum(inst.weights[k] for k in sol.chosen) <= inst.budget
    assert all(c >= r for c, r in zip(sol.coverage, inst.requirements))


def test_wsm_infeasible_budget():
    inst = CoverInstance(2, [{0: 1}, {1: 1}], [1, 1], 1, weights=[1, 1])
    sol = solve_wsm(inst, minimize_cost=True)
    assert not sol.feasible
    assert brute_cover(inst).feasible is False


def test_wsm_zero_requirements_choose_nothing():
    inst = CoverInstance(2, [{0: 1}], [0, 0], 0, weights=[5])
    sol = solve_wsm(inst, minimize_cost=True)
    assert sol.feasible and sol.chosen == () and sol.cost == 0


def test_wsm_duplicate_sets_use_the_cheap_copy():
    inst = CoverInstance(1, [{0: 1}, {0: 1}], [1], 9, weights=[7, 2])
    sol = solve_wsm(inst, minimize_cost=True)
    assert sol.chosen == (1,) and sol.cost == 2


def test_wsm_matches_oracle_on_multisets():
    rng = random.Random(0xC63)
    for _ in range(60):
        m = rng.randint(1, 3)
        n = rng.randint(1, 8)
        sets = [{e: rng.randint(0, 3) for e in range(m)} for _ in range(n)]
        weights = [rng.randint(0, 6) for _ in range(n)]
        requirements = [rng.randint(0, 5) for _ in range(m)]
        budget = rng.randint(0, max(1, sum(weights) // 2))
        inst = CoverInstance(m, sets, requirements, budget, weights)
        sol = solve_wsm(inst, minimize_cost=True)
        answer = brute_cover(inst)
        assert sol.feasible == answer.feasible
        if sol.feasible:
            assert sol.cost == answer.best_cost

    # PARTITION as one-element weighted multiset multicover
    for inst, label in gen_hard_instances("partition-wmm", 20,
                                          random.Random(0xC64)):
        assert solve_wsm(inst, minimize_cost=True).feasible == label


def test_wsm_empty_universe():
    inst = CoverInstance(0, [], [], 0)
    sol = solve_wsm(inst, minimize_cost=True)
    assert sol.feasible and sol.chosen == ()


def test_wsm_matches_oracle_batch():
    rng = random.Random(0xC61)
    for _ in range(60):
        inst = random_set_variant(rng, max_sets=8, max_m=3, max_weight=6)
        sol = solve_wsm(inst, minimize_cost=True)
        answer = brute_cover(inst)
        assert sol.feasible == answer.feasible
        if sol.feasible:
            assert sol.cost == answer.best_cost


# ---------------------------------------------------------------------------
# uniform multiset multicover
# ---------------------------------------------------------------------------


def test_umm_worked_example_minimum_count():
    inst = CoverInstance(
        2, [{0: 2, 1: 2}, {0: 3, 1: 3}, {0: 1}, {1: 1}], [4, 3], 2
    )
    sol = solve_umm(inst, minimize_cost=True)
    assert sol.feasible
    assert sol.cost == 2
    # two optima exist ({0,1} and {1,2}); the root LP's vertex, rounded up,
    # is {0,1}, and no later incumbent replaces a first one at the optimum
    assert sol.chosen == (0, 1)
    assert sol.coverage == (5, 5)
    answer = brute_cover(inst)
    assert answer.feasible and answer.best_cost == 2


def test_umm_prefers_large_multiplicities_within_family():
    inst = CoverInstance(1, [{0: 1}, {0: 5}, {0: 2}], [5], 1)
    sol = solve_umm(inst, minimize_cost=True)
    assert sol.feasible and sol.chosen == (1,)


def test_umm_infeasible():
    inst = CoverInstance(1, [{0: 2}, {0: 2}], [5], 2)
    sol = solve_umm(inst)
    assert not sol.feasible


def test_umm_rejects_bad_variants():
    with pytest.raises(ValueError, match="uniform"):
        solve_umm(CoverInstance(2, [{0: 1, 1: 2}], [0, 0], 1))
    with pytest.raises(ValueError, match="unit weights"):
        solve_umm(CoverInstance(1, [{0: 1}], [0], 1, weights=[2]))


def test_umm_matches_oracle_batch():
    rng = random.Random(0xC62)
    for _ in range(60):
        inst = random_uniform(rng, max_sets=8, max_m=3, max_t=4)
        sol = solve_umm(inst, minimize_cost=True)
        answer = brute_cover(inst)
        assert sol.feasible == answer.feasible
        if sol.feasible:
            assert sol.cost == answer.best_cost


# ---------------------------------------------------------------------------
# resource limits pass through
# ---------------------------------------------------------------------------


def test_node_limit_propagates():
    # A cover solve is one search tree, and the limit reaches it: the
    # tree's own node count completes it, one node less runs out.  Covers
    # with multiplicities, so that trees branch; feasibility searches, since
    # rounding settles most small minimizations at their root.
    rng = random.Random(0xC63)
    tripped = 0
    for _ in range(80):
        inst = random_uniform(rng, max_sets=10, max_m=3)
        full = solve_wsm(inst)
        nodes = full.stats.nodes
        if nodes < 2:
            continue
        with pytest.raises(ResourceExhausted) as exc:
            solve_wsm(inst, node_limit=nodes - 1)
        assert exc.value.nodes == exc.value.limit == nodes - 1
        again = solve_wsm(inst, node_limit=nodes)
        assert (again.cost, again.stats) == (full.cost, full.stats)
        tripped += 1
    assert tripped >= 10
