"""The enumeration oracle and the labelled instance generators."""

import random

import pytest

from pwlmip.covering import CoverInstance
from pwlmip.oracle import (
    CapExceeded,
    OracleBudget,
    _gray_subsets,
    brute_cover,
    brute_manipulate,
    gen_hard_instances,
    gen_partition_wmm,
    gen_subsetsum_mmc,
    subset_sums,
)


def test_gray_walk_visits_every_subset_once():
    seen = set()
    for subset, flipped, now_in in _gray_subsets(4):
        frozen = frozenset(subset)
        assert frozen not in seen
        seen.add(frozen)
        if flipped is not None:
            assert (flipped in subset) == now_in
    assert len(seen) == 16


def test_brute_cover_minimum_and_tie_break():
    inst = CoverInstance(1, [{0: 1}, {0: 1}, {0: 2}], [2], 4, weights=[2, 2, 4])
    ans = brute_cover(inst)
    assert ans.feasible and ans.best_cost == 4
    # {0,1} and {2} both cost 4; the smaller index tuple wins
    assert ans.witness == (0, 1)


def test_brute_cover_infeasible():
    inst = CoverInstance(1, [{0: 1}], [3], 10)
    assert brute_cover(inst) == brute_cover(inst)
    assert not brute_cover(inst).feasible


def test_oracle_budget_cap():
    inst = CoverInstance(1, [{0: 1}] * 4, [1], 4)
    with pytest.raises(CapExceeded):
        brute_cover(inst, caps=OracleBudget(max_items=3))
    big = CoverInstance(1, [{0: 1}] * 21, [1], 21)
    with pytest.raises(CapExceeded):
        brute_cover(big)  # the default cap is 20 items


def test_subset_sums():
    assert subset_sums([2, 3]) == {0, 2, 3, 5}
    assert subset_sums([]) == {0}


def test_partition_labels():
    even = gen_partition_wmm([1, 1, 2])  # 1 + 1 = 2 splits the total
    assert even.m == 1 and even.budget == 2 and even.requirements == (2,)
    assert brute_cover(even).feasible

    odd = gen_partition_wmm([1, 1, 1])
    assert odd.requirements == (2,) and odd.budget == 1
    assert not brute_cover(odd).feasible

    with pytest.raises(ValueError, match="positive"):
        gen_partition_wmm([0, 1])


def test_subsetsum_labels():
    hit = gen_subsetsum_mmc([2, 3], 5)
    assert hit.m == 2 and hit.n_sets == 4  # two number sets + two fillers
    assert hit.requirements == (5, 7) and hit.budget == 2
    assert all(w == 1 for w in hit.weights)  # ready for almost_cover
    assert brute_cover(hit).feasible

    miss = gen_subsetsum_mmc([2, 4], 5)
    assert not brute_cover(miss).feasible

    with pytest.raises(ValueError, match="target"):
        gen_subsetsum_mmc([2, 3], 0)


def test_hard_instances_deterministic_and_correctly_labelled():
    first = gen_hard_instances("partition-wmm", 12, random.Random(7))
    again = gen_hard_instances("partition-wmm", 12, random.Random(7))
    assert [i.to_json() for i, _ in first] == [i.to_json() for i, _ in again]
    assert [b for _, b in first] == [b for _, b in again]
    for inst, label in first:
        assert brute_cover(inst).feasible == label

    mixed = gen_hard_instances("subsetsum-mmc", 12, random.Random(8))
    labels = {b for _, b in mixed}
    for inst, label in mixed:
        assert brute_cover(inst).feasible == label
    assert labels == {True, False}  # seed 8 yields both kinds

    with pytest.raises(ValueError, match="unknown instance kind"):
        gen_hard_instances("nope", 1, random.Random(0))


def test_brute_manipulate_rejects_unknown_problem():
    from pwlmip.voting import ApprovalElection, Voter

    e = ApprovalElection(("p",), (Voter({"p"}),), 0)
    with pytest.raises(ValueError, match="unknown manipulation problem"):
        brute_manipulate("coronation", e, "p")
