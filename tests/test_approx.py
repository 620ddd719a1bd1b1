"""Shape decomposition and the almost-covering solver."""

import random
from fractions import Fraction

import pytest

from generators import random_exact_cover_mmc
from pwlmip.approx import (
    ApproxParams,
    almost_cover,
    decompose,
    decompose_trace,
    decomposition_json,
)
from pwlmip.covering import CoverInstance
from pwlmip.oracle import brute_cover, gen_subsetsum_mmc

F = Fraction


# ---------------------------------------------------------------------------
# grid parameters
# ---------------------------------------------------------------------------


def test_params_frozen_values():
    p = ApproxParams(F(1, 2), 2)
    assert (p.Z, p.Y) == (16, 1040)
    p = ApproxParams(F(1, 4), 3)
    assert (p.Z, p.Y) == (48, 20784)


def test_params_guarantee_inequalities():
    for eps in (F(1, 2), F(1, 3), F(1, 4), F(2, 3)):
        for m in (1, 2, 3, 4):
            p = ApproxParams(eps, m)
            assert F(m, p.Z) <= eps / 4
            assert F(p.Z * m**3, p.Y - p.Z) <= eps / 4
            assert p.half_eps == eps / 2


def test_params_validation():
    with pytest.raises(ValueError, match="positive"):
        ApproxParams(0, 2)
    with pytest.raises(ValueError, match="positive"):
        ApproxParams(F(-1, 2), 2)
    with pytest.raises(ValueError, match="universe"):
        ApproxParams(F(1, 2), 0)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def test_decompose_without_jump_is_one_conservative_vector():
    params = ApproxParams(F(1, 2), 2)  # Z=16, Y=1040
    (vec,), (rec,) = decompose_trace({0: 3, 1: 7}, params)
    # ascending walk anchors at 3: shape = (1, round_down(7/3)) = (1, 9/4)
    assert vec.beta == 3
    assert vec.shape == (1, F(9, 4))
    assert vec.realized() == (3, 6)  # floor(3 * 9/4) = 6 <= 7: conservative
    assert rec.jump_pos is None
    assert rec.pre_shape == (1, F(7, 3))


def test_decompose_jump_splits_into_two_vectors():
    params = ApproxParams(F(1, 2), 2)
    vectors, trace = decompose_trace({0: 1, 1: 2000}, params)
    assert len(vectors) == 2
    first, second = vectors
    # the jump caps element 1 at Z * 1 = 16 and emits beta = 1
    assert first.beta == 1 and first.shape == (1, 16)
    assert first.realized() == (1, 16)
    # what remains of element 1 is emitted alone
    assert second.beta == 1984 and second.shape == (0, 1)
    assert second.realized() == (0, 1984)
    # trace audit: the jump happened at position 1 over prev_value 1
    rec = trace[0]
    assert rec.jump_pos == 1
    assert rec.prev_value == 1 and rec.jump_before == 2000
    assert rec.jump_after == 1984
    # pre-rounding cap identity at the jump position
    i = rec.jump_pos
    assert rec.pre_shape[rec.order[i]] == \
        params.Z * rec.pre_shape[rec.order[i - 1]]


def test_decompose_skips_zero_entries():
    params = ApproxParams(F(1, 2), 3)
    vectors = decompose({1: 5}, params)
    assert len(vectors) == 1
    assert vectors[0].shape == (0, 1, 0)
    assert vectors[0].realized() == (0, 5, 0)
    assert decompose({}, params) == []
    assert decompose({0: 0, 2: 0}, params) == []


def test_decompose_accepts_pairs_and_dicts():
    params = ApproxParams(F(1, 2), 2)
    assert decompose({0: 2, 1: 3}, params) == decompose([(0, 2), (1, 3)], params)
    with pytest.raises(ValueError, match="outside"):
        decompose({5: 1}, params)
    with pytest.raises(ValueError, match="nonnegative"):
        decompose({0: -1}, params)


def test_decompose_structural_guarantees_random():
    rng = random.Random(0xA71)
    for _ in range(300):
        m = rng.randint(1, 4)
        eps = rng.choice((F(1, 2), F(1, 4)))
        params = ApproxParams(eps, m)
        mult = {}
        for e in range(m):
            kind = rng.random()
            if kind < 0.3:
                mult[e] = 0
            elif kind < 0.75:
                mult[e] = rng.randint(1, 30)
            else:  # large enough to force jumps
                mult[e] = rng.randint(1, 10) * params.Y ** rng.randint(1, 2)
        vectors, trace = decompose_trace(mult, params)
        assert len(vectors) <= m
        total = [0] * m
        for vec in vectors:
            for e, c in enumerate(vec.realized()):
                total[e] += c
            for s in vec.shape:
                assert 0 <= s <= F(params.Y) ** m
                assert (s / params.half_eps).denominator == 1  # on the grid
        assert all(total[e] <= mult[e] for e in range(m))
        for rec in trace:
            if rec.jump_pos is None:
                continue
            i = rec.jump_pos
            # cap identity before rounding
            assert rec.pre_shape[rec.order[i]] == \
                params.Z * rec.pre_shape[rec.order[i - 1]]
            # what survives the subtraction keeps the next emission big
            assert rec.jump_after >= (params.Y - params.Z) * rec.prev_value
            assert rec.jump_after > 0


def test_decomposition_json_deterministic():
    inst = CoverInstance(2, [{0: 3, 1: 7}, {0: 1, 1: 2000}], [1, 1], 2)
    out = decomposition_json(inst, F(1, 2))
    assert out["epsilon"] == "1/2"
    assert (out["Z"], out["Y"]) == (16, 1040)
    assert len(out["vectors"]) == 3
    assert out["vectors"][0]["origin"] == 0
    assert out["vectors"][1]["realized"] == [1, 16]
    assert out == decomposition_json(inst, F(1, 2))


# ---------------------------------------------------------------------------
# almost covering
# ---------------------------------------------------------------------------


def test_almost_cover_worked_example():
    inst = CoverInstance(
        2, [{0: 2, 1: 2}, {0: 3, 1: 3}, {0: 1}, {1: 1}], [4, 3], 2
    )
    sol = almost_cover(inst, F(1, 4))
    assert sol.feasible
    assert sol.miss_bound == F(7, 4)
    assert sol.miss_total == 0  # small multiplicities survive rounding intact
    assert all(c >= r for c, r in zip(sol.coverage, inst.requirements))
    assert len(sol.chosen) <= inst.budget
    assert sol.origins == (0, 1) or sol.origins == (1, 2)


def test_almost_cover_all_zero_requirements():
    inst = CoverInstance(2, [{0: 1}], [0, 0], 1)
    sol = almost_cover(inst, F(1, 2))
    assert sol.feasible
    assert sol.miss_total == 0 and sol.chosen == ()


def test_almost_cover_infeasible():
    inst = CoverInstance(1, [{0: 1}], [10], 1)
    sol = almost_cover(inst, F(1, 2))
    assert not sol.feasible
    assert sol.stats.nodes >= 1  # the search is counted all the same


def test_almost_cover_rejects_weights():
    inst = CoverInstance(1, [{0: 1}], [1], 1, weights=[2])
    with pytest.raises(ValueError, match="unit weights"):
        almost_cover(inst, F(1, 2))


def test_almost_cover_respects_per_set_conservativity():
    rng = random.Random(0xA72)
    for _ in range(20):
        inst, _ = random_exact_cover_mmc(rng, max_sets=6, max_m=2, max_mult=4)
        sol = almost_cover(inst, F(1, 2))
        assert sol.feasible
        per_origin = {}
        for vec in sol.chosen:
            acc = per_origin.setdefault(vec.origin, [0] * inst.m)
            for e, c in enumerate(vec.realized()):
                acc[e] += c
        for origin, acc in per_origin.items():
            full = dict(inst.sets[origin])
            assert all(acc[e] <= full.get(e, 0) for e in range(inst.m))


def test_almost_cover_strict_bound_when_exact_cover_exists():
    rng = random.Random(0xA73)
    for _ in range(15):
        inst, witness = random_exact_cover_mmc(rng, max_sets=7, max_m=3)
        answer = brute_cover(inst)
        assert answer.feasible and answer.best_cost <= inst.budget
        for eps in (F(1, 2), F(1, 4)):
            sol = almost_cover(inst, eps)
            assert sol.feasible
            assert sol.miss_total < sol.miss_bound  # strictly below


def test_almost_cover_on_subset_sum_family():
    inst = gen_subsetsum_mmc([2, 3], 5)
    assert brute_cover(inst).feasible  # 2 + 3 = 5 exactly
    sol = almost_cover(inst, F(1, 2))
    assert sol.feasible
    assert sol.miss_total < sol.miss_bound
    # multiplicities 2, 3, 6 are far below Y, so rounding loses nothing
    assert sol.miss_total == 0 and sol.miss_bound == 6


def test_integral_epsilon_keeps_every_value_exact():
    """ε = 1 parses to an int; the grid must still divide exactly."""
    instance = CoverInstance(2, [{0: 2, 1: 2}, {0: 3, 1: 3}, {0: 1}, {1: 1}],
                             [4, 3], 2)
    params = ApproxParams(1, instance.m)
    assert type(params.epsilon) is Fraction and params.half_eps == Fraction(1, 2)
    sol = almost_cover(instance, 1)
    assert sol.feasible
    values = [sol.miss_total, sol.miss_bound, *sol.misses, *sol.coverage]
    for vector in sol.chosen:
        values += [vector.beta, *vector.shape, *vector.realized()]
    assert values and not [v for v in values if isinstance(v, float)]
