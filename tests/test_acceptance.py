"""Acceptance gate: end-to-end guarantees, one test per criterion.

Each test prints one ``ACCEPTANCE <name>: PASS`` line with its instance
counts and elapsed wall time (visible under ``pytest -rA`` or ``-s``) and
fails loudly on the first disagreement with an independent reference.
"""

import random
import time
from fractions import Fraction

from generators import (
    chord_ok,
    grid_feasible,
    random_approval,
    random_exact_cover_mmc,
    random_fraction,
    random_grid_model,
    random_ordinal,
    random_pwl,
    random_set_variant,
    random_uniform,
    satisfies,
)
from pwlmip.approx import ApproxParams, almost_cover, decompose_trace
from pwlmip.covering import solve_umm, solve_wsm
from pwlmip.oracle import brute_cover, brute_manipulate
from pwlmip.pipeline import maximize_emip, solve_emip
from pwlmip.pwl import PwlFunction
from pwlmip.voting import (
    solve_bribery_priced,
    solve_ccav_priced,
    solve_ccav_weighted,
    solve_ccdv_priced,
    solve_ccdv_weighted,
    solve_scoring_ccdv,
)

F = Fraction


def _report(name, detail, elapsed, limit):
    print("ACCEPTANCE %s: PASS (%s, %.1fs)" % (name, detail, elapsed))
    assert elapsed < limit, "%s exceeded its %ds budget: %.1fs" % (
        name, limit, elapsed)


def test_criterion_lowering_preserves_feasibility():
    """Grid-enumerated truth equals the lowered-and-solved answer."""
    rng = random.Random(0xACC1)
    started = time.monotonic()
    total, feasible = 0, 0
    while total < 2000:
        model = random_grid_model(rng)
        truth, _ = grid_feasible(model)
        result = solve_emip(model)
        assert result.feasible == truth, model.to_json()
        if result.feasible:
            assert satisfies(model, result.assignment), model.to_json()
            feasible += 1
        total += 1
    _report(
        "lowering-feasibility",
        "%d models, %d feasible" % (total, feasible),
        time.monotonic() - started,
        300,
    )


def test_criterion_wsm_exact():
    """Weighted set multicover: feasibility and minimum cost match the oracle."""
    rng = random.Random(0xACC2)
    started = time.monotonic()
    total, feasible = 0, 0
    while total < 500:
        instance = random_set_variant(rng)
        truth = brute_cover(instance)
        sol = solve_wsm(instance, minimize_cost=True)
        assert sol.feasible == truth.feasible, instance.to_json()
        if truth.feasible:
            assert sol.cost == truth.best_cost, instance.to_json()
            feasible += 1
        total += 1
    _report(
        "wsm-exact",
        "%d instances, %d feasible" % (total, feasible),
        time.monotonic() - started,
        600,
    )


def test_criterion_umm_exact():
    """Uniform multiset multicover: minimum set count matches the oracle."""
    rng = random.Random(0xACC3)
    started = time.monotonic()
    total, feasible = 0, 0
    while total < 500:
        instance = random_uniform(rng)
        truth = brute_cover(instance)
        sol = solve_umm(instance, minimize_cost=True)
        assert sol.feasible == truth.feasible, instance.to_json()
        if truth.feasible:
            assert sol.cost == truth.best_cost, instance.to_json()
            feasible += 1
        total += 1
    _report(
        "umm-exact",
        "%d instances, %d feasible" % (total, feasible),
        time.monotonic() - started,
        600,
    )


def test_criterion_almost_cover_strict_bound():
    """When an exact cover exists, the approximation always lands strictly
    under its advertised miss bound, for both tested accuracy levels."""
    rng = random.Random(0xACC4)
    started = time.monotonic()
    total = 0
    while total < 200:
        instance, _ = random_exact_cover_mmc(rng)
        certificate = brute_cover(instance)
        assert certificate.feasible, instance.to_json()
        assert certificate.best_cost <= instance.budget
        demand = sum(instance.requirements)
        for eps in (F(1, 2), F(1, 4)):
            sol = almost_cover(instance, eps)
            assert sol.feasible, (instance.to_json(), str(eps))
            assert sol.miss_total < eps * demand, (instance.to_json(), str(eps))
            assert sol.miss_bound == eps * demand
        total += 1
    _report(
        "almost-cover-strict",
        "%d instances x 2 accuracy levels" % total,
        time.monotonic() - started,
        1200,
    )


def test_criterion_decomposition_structure():
    """Every decomposition is conservative, small, and cap-exact at jumps."""
    rng = random.Random(0xACC5)
    started = time.monotonic()
    total, jumps = 0, 0
    while total < 1000:
        m = rng.randint(1, 4)
        eps = rng.choice((F(1, 2), F(1, 4)))
        params = ApproxParams(eps, m)
        mult = {}
        for e in range(m):
            kind = rng.random()
            if kind < 0.25:
                mult[e] = 0
            elif kind < 0.7:
                mult[e] = rng.randint(1, 50)
            else:
                mult[e] = rng.randint(1, 12) * params.Y ** rng.randint(1, 2)
        vectors, trace = decompose_trace(mult, params)
        assert len(vectors) <= m
        realized_total = [0] * m
        for vec in vectors:
            for e, c in enumerate(vec.realized()):
                realized_total[e] += c
        assert all(realized_total[e] <= mult[e] for e in range(m))
        for rec in trace:
            if rec.jump_pos is None:
                continue
            jumps += 1
            i = rec.jump_pos
            assert rec.pre_shape[rec.order[i]] == \
                params.Z * rec.pre_shape[rec.order[i - 1]]
            assert rec.jump_after >= (params.Y - params.Z) * rec.prev_value
        total += 1
    _report(
        "decomposition-structure",
        "%d multisets, %d jumps audited" % (total, jumps),
        time.monotonic() - started,
        60,
    )


def test_criterion_approval_control_exact():
    """All five approval manipulation solvers match subset enumeration."""
    rng = random.Random(0xACC6)
    started = time.monotonic()
    jobs = (
        ("ccdv", solve_ccdv_priced, "priced", False),
        ("ccav", solve_ccav_priced, "priced", True),
        ("bribery", solve_bribery_priced, "priced", False),
        ("ccdv", solve_ccdv_weighted, "weighted", False),
        ("ccav", solve_ccav_weighted, "weighted", True),
    )
    per_solver = 300
    checked = 0
    for problem, solver, variant, with_pool in jobs:
        for i in range(per_solver):
            election = random_approval(rng, variant=variant,
                                       with_pool=with_pool)
            unique = i % 2 == 1
            result = solver(election, unique_winner=unique,
                            minimize_cost=True)
            truth = brute_manipulate(problem, election, "p",
                                     unique_winner=unique)
            ident = (problem, variant, i)
            assert result.feasible == truth.feasible, ident
            if truth.feasible:
                assert result.cost == truth.best_cost, ident
            checked += 1
    _report(
        "approval-control-exact",
        "%d elections across 5 solvers" % checked,
        time.monotonic() - started,
        900,
    )


def test_criterion_scoring_deletion_exact():
    """Scoring-rule deletion matches enumeration for both vector families."""
    rng = random.Random(0xACC7)
    started = time.monotonic()
    total = 0
    for kind in ("borda", "2-approval"):
        for i in range(100):
            election = random_ordinal(rng, vector_kind=kind)
            unique = i % 2 == 1
            result = solve_scoring_ccdv(election, unique_winner=unique,
                                        minimize_cost=True)
            truth = brute_manipulate("scoring-ccdv", election, "p",
                                     unique_winner=unique)
            assert result.feasible == truth.feasible, (kind, i)
            if truth.feasible:
                assert result.cost == truth.best_cost, (kind, i)
            total += 1
    _report(
        "scoring-deletion-exact",
        "%d elections over 2 vector families" % total,
        time.monotonic() - started,
        600,
    )


def test_criterion_feasible_answers_replay():
    """Every feasible answer re-verifies against its raw instance exactly."""
    rng = random.Random(0xACC8)
    started = time.monotonic()
    replayed = 0

    for _ in range(300):
        with_objective = rng.random() < 0.5
        model = random_grid_model(rng, with_objective=with_objective)
        if with_objective:
            result = maximize_emip(model)
        else:
            result = solve_emip(model)
        if not result.feasible:
            continue
        assert satisfies(model, result.assignment), model.to_json()
        if with_objective:
            # the report is always in the model's own sense
            value = sum(
                c * result.assignment[j] for j, c in model.objective.coeffs
            )
            assert value == result.best, model.to_json()
        replayed += 1

    for _ in range(150):
        instance = random_set_variant(rng)
        sol = solve_wsm(instance, minimize_cost=True)
        if not sol.feasible:
            continue
        coverage = [0] * instance.m
        cost = 0
        for k in sol.chosen:
            cost += instance.weights[k]
            for elem, mult in instance.sets[k]:
                coverage[elem] += mult
        assert tuple(coverage) == sol.coverage
        assert cost == sol.cost <= instance.budget
        assert all(c >= r for c, r in zip(coverage, instance.requirements))
        replayed += 1

    for _ in range(150):
        instance = random_uniform(rng)
        sol = solve_umm(instance, minimize_cost=True)
        if not sol.feasible:
            continue
        coverage = [0] * instance.m
        for k in sol.chosen:
            for elem, mult in instance.sets[k]:
                coverage[elem] += mult
        assert tuple(coverage) == sol.coverage
        assert len(sol.chosen) == sol.cost <= instance.budget
        assert all(c >= r for c, r in zip(coverage, instance.requirements))
        replayed += 1

    for _ in range(100):
        instance, _ = random_exact_cover_mmc(rng, max_sets=8)
        sol = almost_cover(instance, F(1, 2))
        if not sol.feasible:
            continue
        coverage = [0] * instance.m
        spent = {}
        for vec in sol.chosen:
            acc = spent.setdefault(vec.origin, [0] * instance.m)
            for e, c in enumerate(vec.realized()):
                coverage[e] += c
                acc[e] += c
        assert tuple(coverage) == sol.coverage
        for origin, acc in spent.items():
            full = dict(instance.sets[origin])
            assert all(acc[e] <= full.get(e, 0) for e in range(instance.m))
        assert sol.miss_total == sum(sol.misses)
        for c, miss, r in zip(coverage, sol.misses, instance.requirements):
            assert 0 <= miss <= r and c + miss >= r
        assert len(set(sol.origins)) == len(sol.origins) <= instance.budget
        replayed += 1

    for _ in range(100):
        election = random_approval(rng, variant="priced")
        res = solve_ccdv_priced(election, minimize_cost=True)
        if not res.feasible:
            continue
        kept = [v for i, v in enumerate(election.voters)
                if i not in set(res.action)]
        scores = {c: 0 for c in election.candidates}
        for v in kept:
            for c in v.approved:
                scores[c] += 1
        rivals = [scores[c] for c in election.candidates[1:]]
        assert not rivals or scores["p"] >= max(rivals)
        paid = sum(election.voters[i].price for i in res.action)
        assert paid == res.cost <= election.budget
        replayed += 1

    _report(
        "feasible-answers-replay",
        "%d feasible answers replayed, 0 violations" % replayed,
        time.monotonic() - started,
        600,
    )


def test_criterion_pwl_evaluation_identity():
    """The closed form agrees with piece-walking; chords certify the shape."""
    rng = random.Random(0xACC9)
    started = time.monotonic()

    from generators import reference_eval

    import math

    for _ in range(1000):
        fn = random_pwl(rng)
        lo = math.floor(fn.breakpoints[0]) - 3 if fn.breakpoints else -5
        x = random_fraction(rng, lo, lo + 10)
        assert fn.eval(x) == reference_eval(fn, x), (fn.to_json(), str(x))

    for _ in range(1000):
        fn = random_pwl(rng)
        points = sorted(
            random_fraction(rng, -8, 8) for _ in range(3)
        )
        if len(set(points)) < 3:
            continue
        assert chord_ok(fn, *points), (fn.to_json(), [str(p) for p in points])

    _report(
        "pwl-evaluation-identity",
        "1000 evaluations + 1000 chord triples",
        time.monotonic() - started,
        120,
    )
