"""Covering instances and the two polynomial multicover solvers."""

import random

import pytest

from generators import random_set_variant, random_uniform
from pwlmip.covering import (
    CoverInstance,
    solve_umm,
    solve_wsm,
    type_families,
)
from pwlmip.milp import ResourceExhausted
from pwlmip.oracle import OracleBudget, brute_cover, gen_hard_instances


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
    with pytest.raises(ValueError):
        CoverInstance.from_json(17)


def test_type_families_group_by_support():
    inst = CoverInstance(
        2, [{0: 1}, {0: 1, 1: 1}, {0: 1}, {}, {1: 1}], [0, 0], 1
    )
    fams = type_families(inst)
    assert [(f.support, f.members) for f in fams] == [
        ((0,), (0, 2)), ((0, 1), (1,)), ((1,), (4,)),
    ]  # the empty set is dropped


# ---------------------------------------------------------------------------
# weighted set multicover
# ---------------------------------------------------------------------------


def test_wsm_worked_example_minimum_cost():
    # cheapest cover of both elements: sets 0 and 2 at cost 3, not the
    # single two-element set at cost 3 -- same cost, smaller index tuple
    inst = CoverInstance(
        2, [{0: 1}, {0: 1, 1: 1}, {1: 1}], [1, 1], 3, weights=[1, 3, 2]
    )
    sol = solve_wsm(inst, minimize_cost=True)
    assert sol.feasible
    assert sol.cost == 3
    assert sol.chosen == (0, 2)
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
