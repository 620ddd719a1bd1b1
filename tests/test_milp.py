"""Exact LP feasibility, branch and bound, and threshold optimization."""

import collections
import itertools
import json
import math
import os
import random
import sys
from fractions import Fraction
from typing import NamedTuple

import pytest

from generators import (grid_best, grid_feasible, iter_grid,
                        random_exact_cover_mmc, random_fraction,
                        random_grid_model, random_pwl, random_set_variant,
                        random_uniform)
from pwlmip import _kernel, covering, milp
from pwlmip._kernel import phase1 as integer_phase1
from pwlmip.approx import almost_cover
from pwlmip.emip import (EmipConstraint, EmipModel, Objective, Variable, VarKind,
                         normalize, term_value)
from pwlmip.milp import branch_bound
from pwlmip.milp import lp as lp_module
from pwlmip.milp.branch_bound import resolve_node_limit
from pwlmip.milp.lp import CompiledRows, solve_lp_feasibility
from pwlmip.milp.model import MilpModel, SolveStats, integer_row
from pwlmip.pipeline import maximize_emip, minimize_budget, solve_emip
from pwlmip.pwl import PwlFunction, Shape
from pwlmip.reduction import lower
from reference_kernel import bounded_phase1
from reference_kernel import phase1 as reference_phase1

F = Fraction


def _mk(variables, rows):
    return MilpModel(tuple(Variable(*v) for v in variables),
                     _int_rows(((tuple((i, F(c)) for i, c in coeffs), F(rhs))
                                for coeffs, rhs in rows), len(variables)))


def _int_rows(rows, n):
    """Rational rows ``(coeffs, rhs)`` over ``n`` variables as integer rows."""
    return tuple(integer_row(coeffs, rhs, n) for coeffs, rhs in rows)


# ---------------------------------------------------------------------------
# LP layer
# ---------------------------------------------------------------------------


def test_lp_feasibility_basic():
    rows = [(((0, F(1)),), F(2)), (((0, F(-1)),), F(-1))]  # 1 <= x <= 2
    ok, point = solve_lp_feasibility(_int_rows(rows, 1), [F(0)], [F(10)])
    assert ok and 1 <= point[0] <= 2
    ok, point = solve_lp_feasibility(
        _int_rows([(((0, F(-1)),), F(-11))], 1), [F(0)], [F(10)]
    )
    assert not ok
    # an empty range is infeasible, though x = 3 meets the row x <= 5
    for up in (1, F(5, 2)):
        assert solve_lp_feasibility(_int_rows([(((0, F(1)),), F(5))], 1),
                                    [3], [up]) == (False, None)


def test_lp_handles_free_variables():
    # x free, x <= -3 and -x <= -(-5) i.e. x >= -5
    rows = [(((0, F(1)),), F(-3)), (((0, F(-1)),), F(5))]
    ok, point = solve_lp_feasibility(_int_rows(rows, 1), [None], [None])
    assert ok and -5 <= point[0] <= -3


def test_lp_negative_rhs_exercises_artificials():
    # x + y >= 4 written as -x - y <= -4, within [0, 3] each
    rows = _int_rows([(((0, F(-1)), (1, F(-1))), F(-4))], 2)
    ok, point = solve_lp_feasibility(rows, [F(0), F(0)], [F(3), F(3)])
    assert ok and point[0] + point[1] >= 4
    rows = _int_rows([(((0, F(-1)), (1, F(-1))), F(-7))], 2)
    ok, _ = solve_lp_feasibility(rows, [F(0), F(0)], [F(3), F(3)])
    assert not ok


def test_lp_exact_rational_vertex():
    # 3x = 1 has the exact solution 1/3
    rows = [(((0, F(3)),), F(1)), (((0, F(-3)),), F(-1))]
    ok, point = solve_lp_feasibility(_int_rows(rows, 1), [F(0)], [F(1)])
    assert ok and point[0] == F(1, 3)


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------


def test_feasibility_needs_branching():
    # 2x + 3y = 12 over integers in [0, 6]: x=3, y=2 or x=0, y=4
    model = _mk(
        [("x", VarKind.INTEGER, F(0), F(6)), ("y", VarKind.INTEGER, F(0), F(6))],
        [([(0, 2), (1, 3)], 12), ([(0, -2), (1, -3)], -12)],
    )
    result = milp.solve_feasibility(model)
    assert result.feasible
    x, y = result.assignment[0], result.assignment[1]
    assert 2 * x + 3 * y == 12
    assert x.denominator == 1 and y.denominator == 1


def test_parity_infeasibility_detected():
    # 2x + 2y = 7 has no integer solutions though the LP relaxation is fine
    model = _mk(
        [("x", VarKind.INTEGER, F(0), F(6)), ("y", VarKind.INTEGER, F(0), F(6))],
        [([(0, 2), (1, 2)], 7), ([(0, -2), (1, -2)], -7)],
    )
    result = milp.solve_feasibility(model)
    assert not result.feasible
    assert result.stats.nodes > 1  # really had to branch


def test_unbounded_integer_rejected():
    model = _mk([("x", VarKind.INTEGER, F(0), None)], [([(0, 1)], 5)])
    with pytest.raises(ValueError, match="finite bounds"):
        milp.solve_feasibility(model)


def test_node_limit_raises_resource_exhausted():
    model = _mk(
        [("x", VarKind.INTEGER, F(0), F(6)), ("y", VarKind.INTEGER, F(0), F(6))],
        [([(0, 2), (1, 2)], 7), ([(0, -2), (1, -2)], -7)],
    )
    with pytest.raises(milp.ResourceExhausted) as exc:
        milp.solve_feasibility(model, node_limit=2)
    assert exc.value.nodes == 2
    assert exc.value.limit == 2


def test_node_limit_default_and_explicit():
    assert resolve_node_limit() == milp.DEFAULT_NODE_LIMIT
    assert resolve_node_limit(5) == 5
    for bad in (0, -3):
        with pytest.raises(ValueError, match="positive"):
            resolve_node_limit(bad)


def test_determinism():
    rng = random.Random(0xB51)
    for _ in range(10):
        model = random_grid_model(rng)
        lowered, _ = lower(normalize(model))
        first = milp.solve_feasibility(lowered)
        second = milp.solve_feasibility(lowered)
        assert first.feasible == second.feasible
        assert first.assignment == second.assignment
        assert first.stats == second.stats


# ---------------------------------------------------------------------------
# threshold optimization
# ---------------------------------------------------------------------------


def test_maximize_knapsack():
    # max x + y subject to x + 2y <= 6, x in [0, 2], y in [0, 6]
    model = _mk(
        [("x", VarKind.INTEGER, F(0), F(2)), ("y", VarKind.INTEGER, F(0), F(6))],
        [([(0, 1), (1, 2)], 6)],
    )
    result = milp.maximize(model, {0: F(1), 1: F(1)}, 0)
    assert result.feasible and result.best == 4
    x, y = result.assignment[0], result.assignment[1]
    assert x + y >= 4 and x + 2 * y <= 6
    # one past the optimum is infeasible: the bracket [T*+1, 8] finds nothing
    past = milp.maximize(model, {0: F(1), 1: F(1)}, 5)
    assert not past.feasible


def test_maximize_works_out_ends_from_fractional_bounds():
    # x continuous in [1/3, 5/2]: the bracket is [floor, ceil] of the form's
    # range, and best is the integer threshold on each side
    x = Variable("x", VarKind.CONTINUOUS, F(1, 3), F(5, 2))
    for sense, best in (("max", 2), ("min", 1)):
        model = EmipModel((x,), (), Objective(sense, {0: 1}))
        result = maximize_emip(model)
        assert result.feasible and result.best == best


def test_maximize_skips_a_zero_coefficient_on_an_unbounded_variable():
    model = _mk([("x", VarKind.INTEGER, F(0), F(3)),
                 ("y", VarKind.CONTINUOUS, None, None)], [([(0, 1)], 3)])
    result = milp.maximize(model, {0: F(1), 1: F(0)})
    assert result.feasible and result.best == 3
    # a nonzero one opens the end it reads, which is refused by name
    with pytest.raises(ValueError, match="'y' has no upper bound"):
        milp.maximize(model, {0: F(1), 1: F(1)}, t_lo=0)
    with pytest.raises(ValueError, match="'y' has no lower bound"):
        milp.maximize(model, {0: F(1), 1: F(-1)}, t_lo=0)


def test_maximize_empty_worked_out_bracket_is_infeasible():
    # the form reaches at most 2, so no point reaches t_lo = 3: no node
    model = _mk([("x", VarKind.INTEGER, F(0), F(2))], [([(0, 1)], 2)])
    result = milp.maximize(model, {0: F(1)}, t_lo=3)
    assert not result.feasible and result.best is None
    assert result.stats.nodes == 0 and result.stats.probes == 0


def test_maximize_entire_bracket_feasible():
    model = _mk([("x", VarKind.INTEGER, F(0), F(5))], [([(0, 1)], 5)])
    result = milp.maximize(model, {0: F(1)}, 0)
    assert result.best == 5 and result.assignment[0] == 5


def test_maximize_against_grid_enumeration():
    rng = random.Random(0xB52)
    checked = 0
    while checked < 30:
        model = random_grid_model(rng, with_objective=True)
        truth = grid_best(model)
        norm = normalize(model)
        lowered, _ = lower(norm)
        coeffs = dict(norm.objective.coeffs)
        if norm.objective.sense == "min":
            coeffs = {i: -c for i, c in coeffs.items()}
        result = milp.maximize(lowered, coeffs)
        if truth is None:
            assert not result.feasible
        else:
            signed = truth if norm.objective.sense == "max" else -truth
            assert result.feasible
            # largest integer threshold below the exact optimum
            import math

            assert result.best == math.floor(signed)
        checked += 1


def test_maximize_emip_is_exact_over_a_fractional_objective():
    """The pipeline owns the threshold grid: over an all-integer model, an
    objective with fractional coefficients is searched on D times the form,
    so ``best`` is the exact optimum that enumeration finds."""
    rng = random.Random(0xB6C)
    fractional = 0
    for _ in range(60):
        base = random_grid_model(rng)
        coeffs = {i: random_fraction(rng, -2, 2, 3)
                  for i in range(len(base.variables))}
        model = EmipModel(base.variables, base.constraints,
                          Objective(rng.choice(("max", "min")), coeffs))
        truth = grid_best(model)
        result = maximize_emip(model)
        if truth is None:
            assert not result.feasible
            continue
        assert result.best == truth
        assert sum(c * result.assignment[i] for i, c in coeffs.items()) \
            == truth
        fractional += truth.denominator != 1
    assert fractional > 5


def test_no_search_meets_an_unbounded_lp(monkeypatch):
    """Every optimization's bracket tops out at the objective's largest
    value over the bounds, so no node or rounding LP is unbounded: over
    objectives, minimum-cost covers and almost-covers, no LP returns
    feasible without a point."""
    real_lp = branch_bound.solve_lp_feasibility
    phase2 = []

    def lp(*args, objective=None, **kwargs):
        result = real_lp(*args, objective=objective, **kwargs)
        assert result[1] is not None or not result[0]
        phase2.append(objective is not None and result[0])
        return result

    monkeypatch.setattr(branch_bound, "solve_lp_feasibility", lp)
    rng = random.Random(0xB6D)
    for _ in range(40):
        maximize_emip(random_grid_model(rng, with_objective=True))
        covering.solve_wsm(random_set_variant(rng), minimize_cost=True)
        covering.solve_umm(random_uniform(rng), minimize_cost=True)
        instance, _ = random_exact_cover_mmc(rng, max_sets=6, max_m=2)
        almost_cover(instance, F(1, 2))
    assert sum(phase2) > 100


def test_a_free_bound_column_reaches_the_search():
    """x >= 0 with no upper bound, and f with breakpoint 1 and slopes -2, -1
    in two rows: the shared block's bound column w = f(x) has no lower
    bound, so the LP splits it, and the search still finds the optimum."""
    fn = PwlFunction(Shape.CONVEX, 0, (1,), (-2, -1))
    model = EmipModel(
        (Variable("x", VarKind.CONTINUOUS, 0, None),
         Variable("k", VarKind.INTEGER, 0, 3)),
        (EmipConstraint(lhs={0: fn, 1: 1}, rhs={}, b=-5),
         EmipConstraint(lhs={0: fn}, rhs={1: 1}, b=-4)),
        Objective("max", {1: 1}))
    lowered, _ = lower(model)
    (w,) = [v for v in lowered.variables if v.name == "w_c0_x"]
    assert w.lower is None
    result = maximize_emip(model)
    assert result.best == 3 and result.assignment == {0: 7, 1: 3}


def test_maximize_node_limit_bounds_the_one_tree(monkeypatch):
    # the root vertex rounded either way leaves the rows, so the tree branches
    model = _mk(
        [("x", VarKind.INTEGER, F(0), F(6)), ("y", VarKind.INTEGER, F(0), F(6))],
        [([(0, 1), (1, 4)], 10), ([(0, 4), (1, -1)], 10)],
    )
    trees = []
    real_solve = branch_bound.solve_feasibility

    def counted(*args, **kwargs):
        trees.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(branch_bound, "solve_feasibility", counted)
    full = milp.maximize(model, {0: F(1), 1: F(1)}, 0)
    assert full.feasible and full.best == 4
    assert len(trees) == 1 and full.stats.probes == 1
    nodes = full.stats.nodes
    assert nodes > 1 and full.stats.max_depth > 0
    assert full.stats.rounding_lps == 2
    # a budget of exactly the tree completes it; one node less runs out
    again = milp.maximize(model, {0: F(1), 1: F(1)}, 0, node_limit=nodes)
    assert again.best == 4 and again.stats == full.stats
    with pytest.raises(milp.ResourceExhausted) as exc:
        milp.maximize(model, {0: F(1), 1: F(1)}, 0, node_limit=nodes - 1)
    assert exc.value.nodes == exc.value.limit == nodes - 1


def _budget_model(fn, upper, budget):
    """f(x) <= budget over an integer x in [0, upper]."""
    return EmipModel((Variable("x", VarKind.INTEGER, 0, upper),),
                     (EmipConstraint(lhs={0: fn}, rhs={}, b=budget),))


def test_minimize_budget_adds_back_the_value_at_zero():
    # normalization moves f(0) = 5 into b; the minimum of f itself is 5
    fn = PwlFunction(Shape.CONVEX, 5, (1,), (1, 2))
    result = minimize_budget(_budget_model(fn, 3, 20), 0)
    assert result.feasible and result.best == 5
    assert result.assignment == {0: 0}


def test_minimize_budget_below_every_value_is_infeasible():
    fn = PwlFunction(Shape.CONVEX, 5, (1,), (1, 2))
    result = minimize_budget(_budget_model(fn, 3, 4), 0)
    assert not result.feasible and result.best is None


def test_minimize_budget_finds_a_minimum_below_zero():
    fn = PwlFunction(Shape.CONVEX, 0, (2,), (-2, 1))
    result = minimize_budget(_budget_model(fn, 5, 10), 0)
    assert result.feasible and result.best == -4
    assert result.assignment == {0: 2}


def test_minimize_budget_is_exact_over_integer_variables():
    # f has breakpoint 1 and slopes 1/2, 3/2: its minimum over x in [1, 3]
    # is f(1) = 1/2, as for the linear x/2, not the integer above it
    kinked = PwlFunction(Shape.CONVEX, 0, (1,), (F(1, 2), F(3, 2)))
    for fn in (kinked, F(1, 2)):
        model = EmipModel((Variable("x", VarKind.INTEGER, 1, 3),),
                          (EmipConstraint(lhs={0: fn}, rhs={}, b=9),))
        result = minimize_budget(model, 0)
        assert result.best == F(1, 2) and result.assignment == {0: 1}
    # a block another row shares, read through its bound column, and an
    # f(0) of 1/3 that normalization moves into b and back
    shifted = PwlFunction(Shape.CONVEX, F(1, 3), (F(3, 2),), (F(-1, 2), 1))
    model = EmipModel((Variable("x", VarKind.INTEGER, 0, 4),),
                      (EmipConstraint(lhs={0: shifted}, rhs={}, b=9),
                       EmipConstraint(lhs={0: shifted}, rhs={}, b=8)))
    _, lmap = lower(model)
    assert all(term.bound_var is not None for _, term in lmap.terms)
    # f(1) = -1/6 and f(2) = 1/3 - 1 + 1/2 = -1/6: both are the minimum
    result = minimize_budget(model, 0)
    assert result.best == F(-1, 6) and result.assignment[0] in (1, 2)


def test_minimize_budget_against_enumeration():
    """Seeded all-integer models with a budget row of fractional convex
    terms and coefficients, some shared with another row: ``best`` is the
    exact minimum that enumeration finds, or the model is infeasible."""
    rng = random.Random(0xB5D)
    fractional = infeasible = shared = 0
    for _ in range(150):
        base = random_grid_model(rng, max_cons=1)
        lhs, extra = {}, []
        for i, v in enumerate(base.variables):
            if v.lower >= 0 and rng.random() < 0.7:
                lhs[i] = random_pwl(rng, Shape.CONVEX)
                if rng.random() < 0.3:
                    extra.append(EmipConstraint(
                        lhs={i: lhs[i]}, rhs={}, b=random_fraction(rng, 0, 16)))
            elif rng.random() < 0.7:
                lhs[i] = random_fraction(rng, -4, 4)
        budget = EmipConstraint(lhs=lhs, rhs={}, b=random_fraction(rng, -2, 16))
        model = EmipModel(base.variables,
                          base.constraints + tuple(extra) + (budget,))
        row = len(model.constraints) - 1
        values = [sum(term_value(t, point[i]) for i, t in budget.lhs)
                  for point in iter_grid(model)
                  if all(c.holds(point) for c in model.constraints)]
        result = minimize_budget(model, row)
        if not values:
            assert not result.feasible
            infeasible += 1
            continue
        assert result.feasible and result.best == min(values)
        assert sum(term_value(t, result.assignment[i])
                   for i, t in budget.lhs) == result.best
        fractional += type(result.best) is F
        shared += bool(extra)
    assert fractional >= 40 and infeasible >= 20 and shared >= 10, (
        fractional, infeasible, shared)


def test_minimize_budget_rejects_a_right_hand_side():
    model = EmipModel(
        (Variable("x", VarKind.INTEGER, 0, 3), Variable("y", VarKind.INTEGER, 0, 3)),
        (EmipConstraint(lhs={0: 1}, rhs={1: 1}, b=2),),
    )
    with pytest.raises(ValueError, match="right-hand side"):
        minimize_budget(model, 0)


def _random_milp(rng, unbounded=False):
    """A small MILP with a rational objective, and its optimum by enumeration.

    One to three integer variables in boxes of width at most 3, up to two
    continuous ones with rational bounds, and rows with rational
    coefficients.  With ``unbounded``, a last continuous variable z >= 0
    without an upper bound enters the objective with a positive coefficient
    and some rows with a negative one: those rows then hold for a large
    enough z, and every node LP that is feasible is unbounded.

    Returns (model, objective, optimum, ties): optimum is the exact maximum,
    None if there is no point, or ``math.inf``; ties is the number of
    integer parts that attain a finite maximum.
    """
    n_int, n_cont = rng.randint(1, 3), rng.randint(0, 2)
    boxes = []
    for _ in range(n_int):
        lo = rng.randint(-2, 1)
        boxes.append((F(lo), F(lo + rng.randint(0, 3))))
    for _ in range(n_cont):
        lo = random_fraction(rng, -2, 1)
        boxes.append((lo, lo + random_fraction(rng, 0, 3)))
    n = n_int + n_cont
    rows = []
    for _ in range(rng.randint(1, 4)):
        coeffs = {i: random_fraction(rng, -3, 3) for i in range(n)
                  if rng.random() < 0.7}
        rows.append((coeffs, random_fraction(rng, -2, 6)))
    if rng.random() < 0.3:  # ties: equal small integer coefficients
        objective = {i: F(1) for i in range(n) if rng.random() < 0.8}
    else:
        objective = {i: random_fraction(rng, -2, 2, 3) for i in range(n)
                     if rng.random() < 0.8}
    kept = rows
    if unbounded:
        z = n
        boxes.append((F(0), None))
        objective[z] = random_fraction(rng, 1, 2, 3)
        kept = []
        for coeffs, rhs in rows:
            if rng.random() < 0.5:
                coeffs[z] = -random_fraction(rng, 1, 2)
            else:
                kept.append((coeffs, rhs))
    model = MilpModel(
        tuple(Variable("x%d" % i, VarKind.INTEGER if i < n_int
                       else VarKind.CONTINUOUS, lo, up)
              for i, (lo, up) in enumerate(boxes)),
        _int_rows(((tuple(c.items()), rhs) for c, rhs in rows), len(boxes)),
    )

    # For each integer part, the best vertex of the continuous box cut by
    # the rows: every point solving k of the constraints as equalities.
    cont = range(n_int, n)
    optimum, ties = None, 0
    for xs in itertools.product(*(range(int(lo), int(up) + 1)
                                  for lo, up in boxes[:n_int])):
        cons = [([c.get(j, 0) for j in cont],
                 rhs - sum(c.get(i, 0) * x for i, x in enumerate(xs)))
                for c, rhs in kept]
        for k, j in enumerate(cont):
            unit = [int(k == other) for other in range(n_cont)]
            cons.append((unit, boxes[j][1]))
            cons.append(([-u for u in unit], -boxes[j][0]))
        best = None
        for tight in itertools.combinations(cons, n_cont):
            y = _solve_square([a for a, _ in tight], [b for _, b in tight])
            if y is None or any(sum(a * v for a, v in zip(a_, y)) > b
                                for a_, b in cons):
                continue
            point = list(xs) + y
            value = sum(c * point[i] for i, c in objective.items() if i < n)
            best = value if best is None else max(best, value)
        if best is None:
            continue
        if unbounded:
            optimum = math.inf
        elif optimum is None or best > optimum:
            optimum, ties = best, 1
        elif best == optimum:
            ties += 1
    return model, objective, optimum, ties


def _solve_square(a, b):
    """The solution of the k x k system a y = b (k <= 2), or None if singular."""
    if not a:
        return []
    if len(a) == 1:
        return [b[0] / a[0][0]] if a[0][0] else None
    (p, q), (r, s) = a
    det = p * s - q * r
    if not det:
        return None
    return [F(b[0] * s - q * b[1]) / det, F(p * b[1] - r * b[0]) / det]


def test_maximize_one_tree_against_enumeration():
    """The one-tree ``maximize`` against enumeration on seeded random MILPs:
    integer and continuous objective variables, rational coefficients and
    ties, and low ends at or below the optimum or above it.  ``best`` is the
    largest integer threshold, the optimum rounded down."""
    rng = random.Random(0xB60)
    seen = collections.Counter()
    for _ in range(600):
        model, objective, optimum, ties = _random_milp(rng)
        if optimum is None:
            mode, lo = "empty", rng.randint(-6, 0)
        else:
            mode = rng.choice(("inside", "lo above"))
            top = math.floor(optimum)
            lo = (top - rng.randint(0, 3) if mode == "inside"
                  else top + rng.randint(1, 2))
        result = milp.maximize(model, objective, lo)
        if mode != "inside":
            assert not result.feasible and result.best is None
        else:
            assert result.feasible and result.best == top
            witness = result.assignment
            assert model.check_assignment(witness) == []
            assert sum(c * witness[i] for i, c in objective.items()) \
                >= result.best
            seen["fractional optimum"] += optimum != top
        seen[mode, result.feasible] += 1
        seen["ties"] += ties > 1
        seen["branched"] += result.stats.max_depth > 0
        seen["continuous objective"] += any(
            model.variables[i].kind is VarKind.CONTINUOUS and c
            for i, c in objective.items())
    for key in (("inside", True), ("lo above", False), ("empty", False)):
        assert seen[key] >= 5, key
    assert seen["ties"] >= 10 and seen["branched"] >= 20
    assert seen["continuous objective"] >= 50
    assert seen["fractional optimum"] >= 50


def test_threshold_steps_down_from_the_root_bound():
    """The search aims at the root bound, and steps down when that lies
    above the optimum: the boxes empty at a threshold are deferred, and the
    threshold falls to the best deferred cap, one probe per level.

    By hand: y <= 2x and y <= 2 - 2x over integers x in [0, 1] and y in
    [0, 2].  The root LP reaches y = 1 at x = 1/2, rounding x either way
    leaves the rows, and both children are empty at T = 1; at T = 0 the
    left one holds the optimum 0.  Then seeded pure-integer models against
    enumeration: ``best`` is the optimum at every level count, and one node
    limit bounds all levels together."""
    model = _mk([("x", VarKind.INTEGER, F(0), F(1)),
                 ("y", VarKind.INTEGER, F(0), F(2))],
                [([(0, -2), (1, 1)], 0), ([(0, 2), (1, 1)], 2)])
    result = milp.maximize(model, {1: F(1)})
    assert result.best == 0 and result.assignment == {0: 0, 1: 0}
    stats = result.stats
    assert (stats.probes, stats.nodes, stats.infeasible_lps,
            stats.rounding_lps) == (2, 4, 4, 2)

    rng = random.Random(0xB6A)
    levels = collections.Counter()
    for _ in range(300):
        n = rng.randint(2, 3)
        uppers = [rng.randint(1, 3) for _ in range(n)]
        rows = [([(i, rng.randint(-9, 9)) for i in range(n)],
                 rng.randint(0, 12)) for _ in range(rng.randint(2, 3))]
        objective = {i: F(rng.randint(1, 5)) for i in range(n)}
        model = _mk([("x%d" % i, VarKind.INTEGER, F(0), F(u))
                     for i, u in enumerate(uppers)], rows)
        optimum = max(
            sum(c * point[i] for i, c in objective.items())
            for point in itertools.product(*(range(u + 1) for u in uppers))
            if all(sum(k * point[i] for i, k in coeffs) <= rhs
                   for coeffs, rhs in rows))
        result = milp.maximize(model, objective, 0)
        assert result.best == optimum
        assert model.check_assignment(result.assignment) == []
        stats = result.stats
        levels[min(stats.probes, 3)] += 1
        if stats.probes >= 2:
            with pytest.raises(milp.ResourceExhausted):
                milp.maximize(model, objective, 0, node_limit=stats.nodes - 1)
            again = milp.maximize(model, objective, 0, node_limit=stats.nodes)
            assert again.best == optimum and again.stats == stats
    assert levels[2] > 20 and levels[3] > 20


def test_maximize_rejects_unknown_objective_variable():
    model = _mk([("x", VarKind.INTEGER, F(0), F(2))], [([(0, 1)], 2)])
    with pytest.raises(ValueError, match="unknown variable"):
        milp.maximize(model, {3: F(1)}, 0)


# ---------------------------------------------------------------------------
# integer pivot kernel against the Fraction reference
# ---------------------------------------------------------------------------


def _integer_rows(tableau):
    """Each Fraction row as integers over the lcm of its denominators."""
    out = []
    for row in tableau:
        den = math.lcm(*(x.denominator for x in row))
        out.append([int(x * den) for x in row] + [den])
    return out


def _fraction_rows(tableau, ncols):
    return [[F(x, row[ncols + 1]) for x in row[:ncols + 1]] for row in tableau]


def _phase1(tableau, basis, nrows, ncols, **bounded):
    """``_kernel.phase1``, with every column unbounded when the call carries
    no bounds and flags."""
    return integer_phase1(tableau, basis, nrows, ncols, **bounded or {
        "bounds": [None] * ncols, "flipped": [False] * ncols})


def _assert_agrees_with_reference(tableau, basis, nrows, ncols, **bounded):
    """Pivot an integer tableau in place and its Fractions by the reference,
    its bounded rule when the call carries bounds and flags.

    Returns the pivot count and the phase-1 optimum.
    """
    expected = _fraction_rows(tableau, ncols)
    expected_basis = list(basis)
    if bounded:
        expected_flipped = list(bounded["flipped"])
        expected_pivots = bounded_phase1(
            expected, expected_basis, nrows, ncols, bounded["bounds"],
            expected_flipped)
    else:
        expected_pivots = reference_phase1(expected, expected_basis, nrows,
                                           ncols)
    pivots = _phase1(tableau, basis, nrows, ncols, **bounded)
    assert pivots == expected_pivots
    assert basis == expected_basis
    assert not bounded or bounded["flipped"] == expected_flipped
    # every entry, so also every vertex value and the phase-1 optimum
    assert _fraction_rows(tableau, ncols) == expected
    return pivots, -expected[nrows][ncols]


def _checked_phase1(tableau, basis, nrows, ncols, **bounded):
    return _assert_agrees_with_reference(tableau, basis, nrows, ncols,
                                         **bounded)[0]


class KernelCall(NamedTuple):
    """One ``_kernel.phase1`` call: its arguments as they came in, the pivot
    count, the tableau as the kernel left it (a copy: after phase 1 the
    LP goes on pivoting the same rows), and the column bounds it was
    given."""

    tableau: list
    basis: list
    nrows: int
    ncols: int
    pivots: int
    final: list
    bounds: list

    def given(self):
        return self.tableau, self.basis, self.nrows, self.ncols, self.bounds


def _record_kernel(monkeypatch, pivot=_phase1):
    """Route every ``_kernel.phase1`` call through ``pivot`` and record it.

    Returns the list each call is appended to as a :class:`KernelCall`.
    The keyword arguments (column bounds and flags) are forwarded when some
    column carries a bound; without one they are dropped, as they then say
    what :func:`_phase1` supplies: no bound, and so each column ranked by
    its index.
    """
    calls = []

    def record(tableau, basis, nrows, ncols, **bounded):
        bounds = list(bounded["bounds"])
        if all(u is None for u in bounds):
            bounded = {}
        given = [list(row) for row in tableau], list(basis), nrows, ncols
        pivots = pivot(tableau, basis, nrows, ncols, **bounded)
        calls.append(KernelCall(*given, pivots, [list(row) for row in tableau],
                                bounds))
        return pivots

    monkeypatch.setattr(_kernel, "phase1", record)
    return calls


def _random_phase1_tableau(rng, integer, degenerate):
    """Phase-1 tableau of random rows ``A x <= b``.

    Degenerate systems repeat rows scaled by a positive factor and use zero
    right-hand sides, so the ratio test meets ties.
    """
    n = rng.randint(1, 5)
    m = rng.randint(1, 6)
    max_den = 1 if integer else 4
    rows = []
    for _ in range(m):
        if degenerate and rows and rng.random() < 0.5:
            coeffs, rhs = rng.choice(rows)
            k = random_fraction(rng, 1, 3, max_den)
            rows.append(([c * k for c in coeffs], rhs * k))
            continue
        coeffs = [random_fraction(rng, -3, 3, max_den) if rng.random() < 0.7
                  else F(0) for _ in range(n)]
        if degenerate and rng.random() < 0.5:
            rhs = F(0)
        else:
            rhs = random_fraction(rng, -4, 4, max_den)
        rows.append((coeffs, rhs))
    if all(rhs >= 0 for _, rhs in rows):
        rows[0] = (rows[0][0], -rows[0][1] - 1)
    return _phase1_tableau(rows, n)


def _phase1_tableau(rows, n):
    """Slack/artificial form of dense rows ``A x <= b`` over ``x >= 0``.

    Rows with a negative right-hand side are negated and get an artificial;
    the objective row is minus their sum, priced out.
    """
    m = len(rows)
    n_art = sum(1 for _, rhs in rows if rhs < 0)
    width = n + m + n_art
    tableau, basis, art = [], [], n + m
    for k, (coeffs, rhs) in enumerate(rows):
        sign = -1 if rhs < 0 else 1
        row = [sign * c for c in coeffs] + [F(0)] * (m + n_art) + [sign * rhs]
        row[n + k] = F(sign)
        if rhs < 0:
            row[art] = F(1)
            basis.append(art)
            art += 1
        else:
            basis.append(n + k)
        tableau.append(row)
    obj = [-sum(col) for col in
           zip(*(row for row, b in zip(tableau, basis) if b >= n + m))]
    for b in basis:
        if b >= n + m:
            obj[b] = F(0)
    tableau.append(obj)
    return tableau, basis, m, width


def test_integer_kernel_matches_reference_on_random_tableaus():
    rng = random.Random(0xB53)
    verdicts = set()
    total = 0
    for case in range(300):
        tableau, basis, nrows, ncols = _random_phase1_tableau(
            rng, integer=case % 3 == 0, degenerate=case % 2 == 0
        )
        pivots, optimum = _assert_agrees_with_reference(
            _integer_rows(tableau), basis, nrows, ncols
        )
        verdicts.add(optimum == 0)
        total += pivots
    assert verdicts == {True, False}  # feasible and infeasible systems
    assert total > 300


def _scaled(rows, factors):
    """Each integer row times its factor, numerators and denominator together."""
    return [[x * k for x in row] for row, k in zip(rows, factors)]


def _count_row_reductions(monkeypatch):
    """Count the kernel's full-row gcds by the row they reduce.

    A reduced pivot row holds its pivot entry in the entering column; a
    rewritten row holds a zero there.  The entering column is read from the
    kernel's frame.
    """
    counts = {"pivot": 0, "rewritten": 0}

    def spy(*args):
        if len(args) > 2:
            enter = sys._getframe(1).f_locals["enter"]
            counts["rewritten" if args[enter] == 0 else "pivot"] += 1
        return math.gcd(*args)

    monkeypatch.setattr(_kernel, "gcd", spy)
    return counts


def test_integer_kernel_reduces_rows_past_the_threshold(monkeypatch):
    """Rows scaled by up to 4 * ``REDUCE_ABOVE`` carry denominators and
    pivot entries past it, so both reductions run; the pivots still match."""
    counts = _count_row_reductions(monkeypatch)
    rng = random.Random(0xB5A)
    top = 4 * _kernel.REDUCE_ABOVE
    for case in range(200):
        tableau, basis, nrows, ncols = _random_phase1_tableau(
            rng, integer=case % 3 == 0, degenerate=case % 2 == 0
        )
        factors = [rng.randint(top >> 17, top) for _ in tableau]
        _assert_agrees_with_reference(
            _scaled(_integer_rows(tableau), factors), basis, nrows, ncols
        )
    assert counts["pivot"] > 20 and counts["rewritten"] > 100


def test_integer_kernel_pivots_are_invariant_under_row_scaling():
    """Scaling any row by a positive integer, numerators and denominator
    together, changes no pivot, basis or rational value: the kernel may
    leave rows out of lowest terms because it never compares raw entries
    of two rows without cross-multiplying."""
    rng = random.Random(0xB5B)
    scaled_cases = 0
    for case in range(300):
        tableau, basis, nrows, ncols = _random_phase1_tableau(
            rng, integer=case % 3 == 0, degenerate=case % 2 == 0
        )
        plain = _integer_rows(tableau)
        factors = [rng.choice((1, 1, 2, 3, 7, 12, rng.randint(2, 1 << 45)))
                   for _ in plain]
        scaled = _scaled(plain, factors)
        plain_basis, scaled_basis = list(basis), list(basis)
        pivots = _phase1(plain, plain_basis, nrows, ncols)
        assert _phase1(scaled, scaled_basis, nrows, ncols) == pivots
        assert scaled_basis == plain_basis
        assert _fraction_rows(scaled, ncols) == _fraction_rows(plain, ncols)
        scaled_cases += pivots > 0 and any(k > 1 for k in factors)
    assert scaled_cases > 100


def _basic_values(tableau, basis, nrows, ncols, n):
    """The first ``n`` columns' values at a Fraction tableau's basis."""
    values = [F(0)] * n
    for i in range(nrows):
        if basis[i] < n:
            values[basis[i]] = tableau[i][ncols]
    return values


def _random_box_rows(rng, n, lowers, uppers):
    """Random rows over n variables in a box; most get one more row that
    needs some variables near their top."""
    rows = [
        (tuple((i, random_fraction(rng, -3, 3)) for i in range(n)
               if rng.random() < 0.8),
         random_fraction(rng, -5, 5))
        for _ in range(rng.randint(1, 4))
    ]
    if rng.random() < 0.8:
        weights = [rng.randint(1, 3) for _ in range(n)]
        top = sum(w * up for w, up in zip(weights, uppers))
        rows.append((tuple((i, F(-w)) for i, w in enumerate(weights)),
                     F(-top + rng.randint(0, 3))))
    return rows


def test_bounded_kernel_takes_the_explicit_row_pivots():
    """A cold phase 1 over integer variables with binding upper bounds takes
    as many pivots, and ends at the same vertex, with each bound a column
    bound as with each bound a row ``x <= up`` under the plain Fraction rule,
    when no column is fixed (U = 0).  A fixed column never enters, so boxes
    with one are compared with the bounded Fraction rule alone.

    The bounded tableau leaves the bound rows out.  The explicit one holds
    its bound rows' slack columns after the artificials, so that its column
    indices are the kernel's ranks: j for each column j, and the bounded
    width plus j for column j's bound slack.
    The kernel agrees with the bounded Fraction rule pivot for pivot, and
    that rule reports the bound flips and the variables that leave at their
    upper bound on the way.
    """
    rng = random.Random(0xB65)
    events = collections.Counter()
    compared = collections.Counter()
    for _ in range(250):
        n = rng.randint(2, 5)
        lowers = [rng.randint(-2, 1) for _ in range(n)]
        uppers = [lo + rng.randint(0, 4) for lo in lowers]
        rows = _random_box_rows(rng, n, lowers, uppers)
        bound_rows = [(((i, F(1)),), F(up)) for i, up in enumerate(uppers)]
        explicit = _per_node_tableau(rows + bound_rows, lowers, [None] * n)
        if explicit is None:
            continue
        bounded = _per_node_tableau(rows, lowers, uppers)
        # The explicit tableau's rows are the bounded one's, then the bounds,
        # and its columns structural | slacks | bound slacks | artificials:
        # the bound slacks move to the end.
        tableau, basis, nrows, ncols, _ = explicit
        real = n + len(rows)
        order = (list(range(real)) + list(range(real + n, ncols))
                 + list(range(real, real + n)) + [ncols, ncols + 1])
        tableau = [[row[c] for c in order] for row in tableau]
        basis = [order.index(b) for b in basis]
        rational = _fraction_rows(tableau, ncols)
        pivots = reference_phase1(rational, basis, nrows, ncols)
        vertex = _basic_values(rational, basis, nrows, ncols, n)

        tableau, basis, nrows, width, _ = bounded
        bounds = [up - lo for lo, up in zip(lowers, uppers)]
        bounds += [None] * (width - n)
        flipped = [False] * width
        rational = _fraction_rows(tableau, width)
        reference_flipped, reference_basis, seen = list(flipped), list(basis), []
        expected = bounded_phase1(rational, reference_basis, nrows, width,
                                  bounds, reference_flipped, seen)
        assert integer_phase1(tableau, basis, nrows, width, bounds=bounds,
                              flipped=flipped) == expected
        assert (basis, flipped) == (reference_basis, reference_flipped)
        assert _fraction_rows(tableau, width) == rational
        events.update(seen)
        if 0 in bounds:
            compared["fixed"] += 1
            continue
        assert expected == pivots
        values = _basic_values(rational, basis, nrows, width, n)
        assert [bounds[j] if flipped[j] else x
                for j, x in enumerate(values)] == vertex
        compared["explicit"] += 1
    assert compared["explicit"] > 90 and compared["fixed"] > 50
    assert events["flip"] > 100 and events["upper"] > 30


def test_fixed_columns_never_enter():
    """On an all-fixed box (every bound U = 0) no structural column enters
    the basis, and a fixed column met with a negative objective entry is
    complemented instead.  A cold phase 1 runs only when some row is
    violated at the box's one point, and proves it empty with slacks and
    artificials basic alone; a warm dual phase reaches either verdict with
    slack pivots alone.  The kernel agrees with the bounded Fraction rule,
    and the objective row ends with no negative entry."""
    rng = random.Random(0xB67)
    seen = collections.Counter()
    for case in range(200):
        n = rng.randint(2, 5)
        point = [rng.randint(-2, 2) for _ in range(n)]
        rows = _random_box_rows(rng, n, point, point)
        cold = _per_node_tableau(rows, point, point)
        if cold is not None:
            tableau, basis, nrows, width, _ = cold
            bounds = [0] * n + [None] * (width - n)
            flipped = [False] * width
            rational = _fraction_rows(tableau, width)
            expected_basis, expected_flipped = list(basis), list(flipped)
            expected = bounded_phase1(rational, expected_basis, nrows, width,
                                      bounds, expected_flipped)
            assert integer_phase1(tableau, basis, nrows, width, bounds=bounds,
                                  flipped=flipped) == expected
            assert (basis, flipped) == (expected_basis, expected_flipped)
            assert min(basis) >= n
            assert min(tableau[nrows][:width]) >= 0
            seen["cold", tableau[nrows][width] == 0] += 1
            seen["complemented"] += any(flipped)

        # The same box, warm: the optimal tableau of a random objective over
        # the box [-2, 2]^n, moved to the fixed point and re-optimized by
        # the dual phase.
        objective = (tuple((i, F(rng.randint(-3, 3))) for i in range(n)),
                     F(100))
        compiled = CompiledRows(_int_rows(rows + [objective], n), [-2] * n,
                                [2] * n, range(n))
        live, stats = lp_module.LiveTableau(), SolveStats()
        solve_lp_feasibility(compiled, [-2] * n, [2] * n, stats,
                             objective=len(rows), live=live)
        if live.tableau is None:
            continue
        before = set(live.basis)
        pivots = stats.pivots
        feasible, _ = solve_lp_feasibility(compiled, point, point, stats,
                                           objective=len(rows), live=live)
        entered = set(live.basis) - before
        assert all(j >= n for j in entered)
        assert min(live.tableau[-1][:-2]) >= 0
        seen["warm", feasible] += 1
        seen["warm pivots"] += stats.pivots > pivots
    assert seen["cold", False] > 100 and not seen["cold", True]
    assert seen["warm", True] > 10 and seen["warm", False] > 50
    assert seen["complemented"] > 10 and seen["warm pivots"] > 20


def _ladder_cover(rng, m, n, kind):
    """A cover on the benchmark ladder's recipe: nonempty random supports,
    requirements 2..3n/m; UMM multiplicities 1-6 and budget n/2, WSM
    weights 1-9 and budget half the total weight."""
    sets = []
    for _ in range(n):
        t = rng.randint(1, 6) if kind == "umm" else 1
        mask = rng.randrange(1, 1 << m)
        sets.append({e: t for e in range(m) if mask >> e & 1})
    requirements = [rng.randint(2, max(2, 3 * n // m)) for _ in range(m)]
    if kind == "umm":
        return covering.CoverInstance(m, sets, requirements, n // 2)
    weights = [rng.randint(1, 9) for _ in range(n)]
    return covering.CoverInstance(m, sets, requirements, sum(weights) // 2,
                                  weights)


def _rational_knapsack(rng, n):
    """Maximize a rational objective (fifths) over n integer variables in
    small boxes, under two rational knapsack rows (sevenths, elevenths)."""
    variables = tuple(Variable("x%d" % i, VarKind.INTEGER, 0,
                               rng.randint(2, 6)) for i in range(n))
    rows = []
    for den in (7, 11):
        coeffs = [(i, F(rng.randint(1, 20), den)) for i in range(n)]
        rows.append(integer_row(coeffs, 2 * sum(c for _, c in coeffs), n))
    objective = {i: F(rng.randint(1, 20), 5) for i in range(n)}
    return MilpModel(variables, tuple(rows)), objective


def test_kernel_entries_stay_within_64_bits_on_covers(monkeypatch):
    """Lazy reduction lets rows grow past lowest terms, and a search moves
    one live tableau through all its nodes, but entries do not grow far: on
    minimum-cost covers with m = 5..10 and on knapsacks with rational rows
    and a rational objective no final tableau entry needs more than 64
    bits."""
    calls = _record_kernel(monkeypatch)
    rng = random.Random(0xB5C)
    for m, n in ((5, 20), (6, 22), (7, 30), (8, 40), (9, 45), (10, 50)):
        for kind in ("umm", "wsm", "umm", "wsm"):
            instance = _ladder_cover(rng, m, n, kind)
            getattr(covering, "solve_" + kind)(instance, minimize_cost=True)
    rational = len(calls)
    for n in (6, 8, 10, 12):
        model, objective = _rational_knapsack(rng, n)
        milp.maximize(model, objective, 0)
    assert sum(call.pivots for call in calls) > 1000
    assert sum(call.pivots for call in calls[rational:]) > 100
    bits = max(abs(x).bit_length()
               for call in calls for row in call.final for x in row)
    assert bits <= 64


def test_integer_kernel_matches_reference_on_lowered_models(monkeypatch):
    calls = _record_kernel(monkeypatch, _checked_phase1)
    rng = random.Random(0xB53)
    for _ in range(12):
        lowered, _ = lower(normalize(random_grid_model(rng)))
        milp.solve_feasibility(lowered)
    assert sum(call.pivots for call in calls) > 0


def _phase2_calls(monkeypatch, calls):
    """Collect the phase-2 calls among the :class:`KernelCall` s that
    ``calls`` records: the last kernel call of a node LP that has an
    objective and a feasible verdict, each with whether the LP started warm
    from the search's live tableau."""
    phase2 = []
    real_lp = branch_bound.solve_lp_feasibility

    def lp(*args, objective=None, live=None, **kwargs):
        warm = live is not None and live.tableau is not None
        result = real_lp(*args, objective=objective, live=live, **kwargs)
        if objective is not None and result[0]:
            phase2.append((calls[-1], warm))
        return result

    monkeypatch.setattr(branch_bound, "solve_lp_feasibility", lp)
    return phase2


def test_phase2_kernel_calls_match_reference(monkeypatch):
    """Every phase-2 kernel call pivots as the Fraction reference does, and
    starts from a basis of unit columns with the objective priced out, on
    lowered models, minimum-cost covers and MILPs with continuous variables
    and unbounded objectives.  A cold call starts from a feasible basis,
    unless its objective row is dual feasible: then, as on a warm call, its
    right-hand sides may be negative, and the call is the dual cold start,
    with no phase 1 before it."""
    calls = _record_kernel(monkeypatch, _checked_phase1)
    phase2 = _phase2_calls(monkeypatch, calls)
    rng = random.Random(0xB5E)
    for _ in range(80):
        norm = normalize(random_grid_model(rng, with_objective=True))
        lowered, _ = lower(norm)
        coeffs = dict(norm.objective.coeffs)
        milp.maximize(lowered, coeffs)
    for case in range(150):
        model, objective, _, _ = _random_milp(rng, unbounded=case % 3 == 0)
        if case % 3:
            milp.maximize(model, objective, -6)
            continue
        # a search never meets an unbounded objective, so its root LP, at
        # objective >= -6, is solved on its own
        threshold = integer_row(((i, -c) for i, c in objective.items()), 6,
                                model.n_vars)
        branch_bound.solve_lp_feasibility(
            model.rows + (threshold,), [v.lower for v in model.variables],
            [v.upper for v in model.variables], objective=len(model.rows))
    for m, n in ((3, 8), (4, 10), (5, 12)) * 8:
        covering.solve_umm(_ladder_cover(rng, m, n, "umm"), minimize_cost=True)
    unbounded = warm_calls = dual_cold = 0
    for (tableau, basis, nrows, ncols, _, final, _), warm in phase2:
        obj = tableau[nrows]
        assert sorted(set(basis)) == sorted(basis) and max(basis) < ncols
        for k, b in enumerate(basis):
            assert obj[b] == 0
            assert [row[b] for row in tableau[:nrows]] == [
                row[ncols + 1] if i == k else 0
                for i, row in enumerate(tableau[:nrows])]
        if warm or any(row[ncols] < 0 for row in tableau[:nrows]):
            assert min(obj[:ncols]) >= 0
            warm_calls += warm
            dual_cold += not warm
        unbounded += min(final[nrows][:ncols]) < 0
    assert len(phase2) > 150 and unbounded > 20 and warm_calls > 20
    assert dual_cold > 20
    assert sum(call.pivots for call, _ in phase2) > 200


def test_phase2_drives_a_basic_artificial_out(monkeypatch):
    """x + y = 2, written twice as two rows each, leaves an artificial
    basic at zero after phase 1; its row's first nonzero real entry is
    negative, so the row is negated and pivoted on it.  Phase 2 then sees
    no artificial column."""
    bases = []

    def checked(tableau, basis, nrows, ncols, **bounded):
        pivots = _checked_phase1(tableau, basis, nrows, ncols, **bounded)
        bases.append(list(basis))
        return pivots

    calls = _record_kernel(monkeypatch, checked)
    rows = _int_rows([(((0, F(1)), (1, F(1))), F(2)),
                      (((0, F(-1)), (1, F(-1))), F(-2)),
                      (((0, F(-1)), (1, F(-1))), F(-2)),
                      (((0, F(-1)),), F(0))], 2)
    compiled = CompiledRows(rows, [F(0), F(0)], [F(3), F(3)])
    stats = SolveStats()
    ok, point = solve_lp_feasibility(compiled, (), (), stats, objective=3)
    assert ok and point == [2, 0]
    first, second = calls
    real = compiled.ncols + first.nrows  # structural and slack columns
    assert first.ncols > real
    left = [k for k, b in enumerate(bases[0]) if b >= real]
    assert left and all(first.final[k][first.ncols] == 0 for k in left)
    assert all(next(x for x in first.final[k][:real] if x) < 0 for k in left)
    assert (second.nrows, second.ncols) == (first.nrows, real)
    assert max(second.basis) < real
    assert stats.pivots == first.pivots + second.pivots


def test_lp_rational_rows_and_bounds(monkeypatch):
    """Rational rows and bounds, each finite range a column bound: the
    verdict holds and a point satisfies every row and bound exactly.  A
    fractional range rescales its column, and those kernel calls agree
    with the bounded Fraction rule pivot for pivot.  A variable with an
    upper bound only is one column ``up - x``: its answers are those of
    the mirrored model, ``x -> -x``, which has a lower bound only."""
    bounded = []

    def checked(tableau, basis, nrows, ncols, **kwargs):
        bounded.append(bool(kwargs))
        return _checked_phase1(tableau, basis, nrows, ncols, **kwargs)

    built = _record_kernel(monkeypatch, checked)
    rng = random.Random(0xB54)
    verdicts = set()
    compared = rescaled = mirrored = 0
    for case in range(150):
        n = rng.randint(1, 4)
        orthant = case % 3 == 0  # x >= 0 only: no shift, split or bound
        lowers = [F(0) if orthant else None if rng.random() < 0.3
                  else random_fraction(rng, -3, 2) for _ in range(n)]
        uppers = [None if orthant or rng.random() < 0.3
                  else random_fraction(rng, -3, 2) if lo is None
                  else lo + random_fraction(rng, 0, 4) for lo in lowers]
        rows = [
            (tuple((i, random_fraction(rng, -3, 3)) for i in range(n)),
             random_fraction(rng, -5, 5))
            for _ in range(rng.randint(1, 4))
        ]
        built.clear()
        bounded.clear()
        ok, point = solve_lp_feasibility(_int_rows(rows, n), lowers, uppers)
        verdicts.add(ok)
        if orthant and built:
            dense = [([c for _, c in coeffs], rhs)
                     for coeffs, rhs in _int_rows(rows, n)]
            first = built[0]
            assert ((_fraction_rows(first.tableau, first.ncols), first.basis)
                    == _phase1_tableau(dense, n)[:2])
            compared += 1
        if any(lo is not None and up is not None and (up - lo).denominator > 1
               for lo, up in zip(lowers, uppers)):
            # every call carried the bounds to the bounded Fraction rule
            assert all(bounded)
            rescaled += sum(call.pivots > 0 for call in built)
        if ok:
            for coeffs, rhs in rows:
                assert sum(c * point[i] for i, c in coeffs) <= rhs
            for x, lo, up in zip(point, lowers, uppers):
                assert lo is None or x >= lo
                assert up is None or x <= up
        flip = [lo is None and up is not None
                for lo, up in zip(lowers, uppers)]
        if any(flip):
            mirror = [(tuple((i, -c if flip[i] else c) for i, c in coeffs),
                       rhs) for coeffs, rhs in rows]
            got = solve_lp_feasibility(
                _int_rows(mirror, n),
                [-up if f else lo for f, lo, up in zip(flip, lowers, uppers)],
                [None if f else up for f, up in zip(flip, uppers)])
            assert got == (ok, point and [-x if f else x
                                          for f, x in zip(flip, point)])
            mirrored += 1
    assert verdicts == {True, False}
    assert compared > 10 and rescaled > 20 and mirrored > 20


def test_lp_vertex_values_are_ints_when_integral(monkeypatch):
    """A vertex value is an int when it is integral and a Fraction
    otherwise, whether or not its row is in lowest terms and whatever
    bound it was shifted by."""
    calls = _record_kernel(monkeypatch)
    # -a*x <= -b over x >= lower: x enters on the pivot entry a
    cases = [  # a, b, lower, vertex value, basic row's (rhs, denominator)
        (3, 6, 0, 2, (6, 3)),
        (1, 5, 0, 5, (5, 1)),
        (2, 3, 0, F(3, 2), (3, 2)),
        (4, 6, 0, F(3, 2), (6, 4)),
        (2, 4, F(1, 2), 2, (3, 2)),
        (2, 5, F(1, 2), F(5, 2), (4, 2)),
        (4, 6, -1, F(3, 2), (10, 4)),
    ]
    for a, b, lo, value, row in cases:
        calls.clear()
        ok, point = solve_lp_feasibility(
            _int_rows([(((0, F(-a)),), F(-b))], 1), [lo], [None])
        assert ok and point == [value]
        assert type(point[0]) is (int if value.denominator == 1 else Fraction)
        assert tuple(calls[-1].final[0][-2:]) == row

    # x's basic row keeps a common factor 4 and reads 20 over 4
    calls.clear()
    rows = _int_rows([(((0, F(-1)), (1, F(3))), F(-5)),
                      (((0, F(-4)), (1, F(2))), F(-1))], 2)
    ok, point = solve_lp_feasibility(rows, [0, 0], [None, None])
    assert ok and point == [5, 0] and all(type(x) is int for x in point)
    assert [4, -12, -4, 0, 4, 0, 20, 4] in calls[-1].final

    # free variables, read as the difference of two columns, and rational
    # lower bounds
    rng = random.Random(0xB5D)
    kinds = set()
    for case in range(150):
        n = rng.randint(1, 3)
        lowers = [None if rng.random() < 0.4 else random_fraction(rng, -3, 2)
                  for _ in range(n)]
        rows = [
            (tuple((i, random_fraction(rng, -3, 3)) for i in range(n)),
             random_fraction(rng, -5, 5))
            for _ in range(rng.randint(1, 4))
        ]
        ok, point = solve_lp_feasibility(_int_rows(rows, n), lowers,
                                         [None] * n)
        for x in point if ok else ():
            assert type(x) is (int if x.denominator == 1 else Fraction)
            kinds.add(type(x))
    assert kinds == {int, Fraction}


def _direct_rows(rows, lowers, uppers):
    """Fraction rows and bounds as integer rows ``(dense, rhs)``, with each
    variable's columns and the columns' bounds.

    A variable with a lower bound is the column ``unit * (x - lo)``, with
    the bound ``unit * (up - lo)`` when its upper bound is finite, where
    ``unit`` is the denominator of ``up - lo`` (else 1); one with an upper
    bound only is the column ``up - x``; a free one is a positive/negative
    pair.  Each row is in ints by :func:`integer_row`, then times the least
    positive int that makes its coefficients over the units and its shifts
    integral.  No bound makes a row.
    """
    col_of, how, bounds = [], [], []
    for lo, up in zip(lowers, uppers):
        c = len(bounds)
        if lo is None and up is None:
            col_of.append((c, c + 1))
            how.append(None)
            bounds += [None, None]
            continue
        col_of.append((c,))
        if lo is None:
            how.append((-1, up))  # x = up - x'
            bounds.append(None)
        else:
            span = None if up is None else F(up - lo)
            unit = 1 if span is None else span.denominator
            how.append((unit, lo))  # x = lo + x' / unit
            bounds.append(None if span is None else int(span * unit))
    int_rows = []
    for coeffs, rhs in rows:
        coeffs, rhs = integer_row(coeffs, rhs, len(lowers))
        scale = math.lcm(*(F(x).denominator for i, c in coeffs
                           if how[i] is not None
                           for x in (F(c, how[i][0]), c * how[i][1])))
        dense = [0] * len(bounds)
        total = F(rhs * scale)
        for i, c in coeffs:
            if how[i] is None:
                dense[col_of[i][0]] += c * scale
                dense[col_of[i][1]] -= c * scale
                continue
            unit, anchor = how[i]
            entry = F(c * scale, unit)
            assert entry.denominator == 1
            dense[col_of[i][0]] += int(entry)
            total -= c * scale * anchor
        assert total.denominator == 1
        int_rows.append((dense, int(total)))
    return int_rows, col_of, bounds


def _per_node_tableau(rows, lowers, uppers):
    """The phase-1 tableau built straight from Fraction rows and bounds.

    The direct construction that compiled rows replace: the rows of
    :func:`_direct_rows` over 1, then slacks, artificials and the objective,
    minus the sum of the artificial rows.  Returns (tableau, basis, nrows,
    ncols, bounds), the bounds those of :func:`_direct_rows` and None for
    every slack and artificial column, or None when the all-slack basis is
    already feasible and no kernel call is needed.
    """
    int_rows, _, bounds = _direct_rows(rows, lowers, uppers)
    ncols = len(bounds)
    m = len(int_rows)
    n_art = sum(1 for _, rhs in int_rows if rhs < 0)
    if not n_art:
        return None
    tableau, basis, art = [], [], ncols + m
    for k, (dense, rhs) in enumerate(int_rows):
        sign = -1 if rhs < 0 else 1
        row = [sign * c for c in dense] + [0] * (m + n_art) + [sign * rhs, 1]
        row[ncols + k] = sign
        if rhs < 0:
            row[art] = 1
            basis.append(art)
            art += 1
        else:
            basis.append(ncols + k)
        tableau.append(row)
    art_rows = [row for row, b in zip(tableau, basis) if b >= ncols + m]
    obj = [-sum(row[j] for row in art_rows)
           for j in range(ncols + m + n_art + 1)] + [1]
    for b in basis:
        if b >= ncols + m:
            obj[b] = 0
    tableau.append(obj)
    return (tableau, basis, m, ncols + m + n_art,
            bounds + [None] * (m + n_art))


def _dual_start_tableau(rows, lowers, uppers, moving, objective):
    """The tableau of the dual cold start, built straight from Fraction rows
    and bounds, or None unless row ``objective`` is dual feasible at the
    all-slack basis: no negative entry, and a positive one on every moving
    column.  The rows of :func:`_direct_rows` keep their signs, with slacks
    and no artificial, every row over 1, and that row itself is the
    objective.  Returns (tableau, basis, nrows, ncols, bounds)."""
    int_rows, col_of, bounds = _direct_rows(rows, lowers, uppers)
    ncols = len(bounds)
    head = int_rows[objective][0]
    if min(head, default=0) < 0 or not all(head[col_of[i][0]] for i in moving):
        return None
    m = len(int_rows)
    tableau = []
    for k, (dense, rhs) in enumerate(int_rows):
        row = dense + [0] * m + [rhs, 1]
        row[ncols + k] = 1
        tableau.append(row)
    tableau.append(head + [0] * (m + 1) + [1])
    return (tableau, list(range(ncols, ncols + m)), m, ncols + m,
            bounds + [None] * m)


def test_compiled_rows_build_the_per_node_tableau(monkeypatch):
    """One compiled row set serves every node of a search entry for entry,
    column bounds included.

    Rows and the fixed variables' bounds are rational or None, so a fixed
    range may be fractional and its column rescaled, and a variable with no
    lower bound may have an upper one; the moving variables get int bounds
    at each node, moved the way branching moves them (an integer floor as
    upper, floor + 1 as lower).
    """
    built = _record_kernel(monkeypatch)
    rng = random.Random(0xB55)
    compared = rational_lowers = moved = rescaled = reflected = 0
    for _ in range(80):
        n = rng.randint(1, 5)
        moving = [i for i in range(n) if rng.random() < 0.4]
        lowers = [rng.randint(-3, 1) if i in moving
                  else None if rng.random() < 0.2
                  else random_fraction(rng, -3, 2) for i in range(n)]
        uppers = [lo + rng.randint(0, 5) if i in moving
                  else random_fraction(rng, -3, 2) if lo is None
                  and rng.random() < 0.5
                  else None if lo is None or rng.random() < 0.3
                  else lo + random_fraction(rng, 0, 5)
                  for i, lo in enumerate(lowers)]
        rows = [
            (tuple((i, random_fraction(rng, -3, 3)) for i in range(n)
                   if rng.random() < 0.8),
             random_fraction(rng, -5, 5))
            for _ in range(rng.randint(1, 5))
        ]
        compiled = CompiledRows(_int_rows(rows, n), lowers, uppers, moving)
        rational = any(lowers[i] is not None and lowers[i].denominator != 1
                       for i in range(n) if i not in moving)
        fractional = any(lo is not None and up is not None
                         and F(up - lo).denominator != 1
                         for lo, up in zip(lowers, uppers))
        upper_only = any(lo is None and up is not None
                         for lo, up in zip(lowers, uppers))
        for node in range(6):
            lo, up = list(lowers), list(uppers)
            if node:
                for i in moving:
                    if lo[i] == up[i] or rng.random() < 0.5:
                        continue
                    cut = rng.randint(lo[i], up[i] - 1)
                    if rng.random() < 0.5:
                        up[i] = cut
                    else:
                        lo[i] = cut + 1
            expected = _per_node_tableau(rows, lo, up)
            built.clear()
            result = solve_lp_feasibility(compiled, [lo[i] for i in moving],
                                          [up[i] for i in moving])
            assert ([call.given() for call in built]
                    == ([] if expected is None else [expected]))
            assert result == solve_lp_feasibility(_int_rows(rows, n), lo, up)
            compared += expected is not None
            rational_lowers += rational and expected is not None
            moved += expected is not None and any(lo[i] for i in moving)
            rescaled += fractional and expected is not None
            reflected += upper_only and expected is not None
    assert compared > 150 and rational_lowers > 100 and moved > 100
    assert rescaled > 100 and reflected > 30


def test_compiled_rows_reject_an_unbounded_moving_variable():
    rows = _int_rows([(((0, F(1)), (1, F(1))), F(3))], 2)
    assert CompiledRows(rows, [0, None], [2, None], moving=[0]).ncols == 3
    for lowers, uppers in (([None, 0], [2, None]), ([0, None], [None, 4])):
        with pytest.raises(ValueError, match="finite bounds"):
            CompiledRows(rows, lowers, uppers, moving=[0])


def test_check_assignment_reports_violations():
    model = _mk([("x", VarKind.INTEGER, F(0), F(2))], [([(0, 1)], 1)])
    assert model.check_assignment({0: F(1)}) == []
    assert any("row" in p for p in model.check_assignment({0: F(2)}))
    assert any("integral" in p or "integer" in p
               for p in model.check_assignment({0: F(1, 2)}))
    assert model.check_assignment({0: F(-1)}) != []


# ---------------------------------------------------------------------------
# integer rows end to end
# ---------------------------------------------------------------------------


def test_rational_integer_bounds_round_inward():
    # x integer in [1/2, 7/2] is x in {1, 2, 3}; y continuous in [0, 5/2].
    # The extra rows cut the box where only the rounded bounds tell a
    # relaxation without integers from one with them.
    base = [([(0, 2), (1, -3)], 1), ([(0, -1), (1, 2)], F(1, 2))]
    verdicts = set()
    for extra in ([], [([(0, -5)], -16)], [([(0, 4)], 5)], [([(0, 2)], 1)]):
        rows = base + extra
        model = _mk([("x", VarKind.INTEGER, F(1, 2), F(7, 2)),
                     ("y", VarKind.CONTINUOUS, F(0), F(5, 2))], rows)

        def holds(x, y, rows=rows):
            return all(sum(F(c) * (x, y)[i] for i, c in coeffs) <= rhs
                       for coeffs, rhs in rows)

        # y on a 1/12 grid meets every x-slice of these rows that is nonempty
        points = [(x, F(k, 12)) for x in range(-1, 6) for k in range(31)
                  if F(1, 2) <= x <= F(7, 2) and holds(x, F(k, 12))]
        result = milp.solve_feasibility(model)
        assert result.feasible == bool(points)
        verdicts.add(result.feasible)
        if not points:
            assert not milp.maximize(model, {0: F(1)}).feasible
            continue
        assert holds(*result.assignment.values())
        assert result.assignment[0] in {x for x, _ in points}
        # x is integer, so c * x takes only multiples of 1/3 for c = 2/3:
        # the search on 3 * c * x, as the pipeline scales it, is exact
        for c in (F(1), F(-1), F(2, 3)):
            best = max(c * x for x, _ in points)
            got = milp.maximize(model, {0: 3 * c}, 3 * best - 9)
            assert got.best == 3 * best
            assert c * got.assignment[0] >= best
            assert holds(*got.assignment.values())
    assert verdicts == {True, False}


def test_empty_rounded_integer_box_is_infeasible_without_an_lp():
    # no integer lies in [1/3, 2/3]
    model = _mk([("x", VarKind.INTEGER, F(1, 3), F(2, 3)),
                 ("y", VarKind.INTEGER, F(0), F(4))], [([(0, 1), (1, 1)], 5)])
    result = milp.solve_feasibility(model)
    assert not result.feasible
    assert (result.stats.nodes, result.stats.lp_calls) == (1, 0)
    assert not milp.maximize(model, {1: F(1)}, 0).feasible


def test_assignments_are_exact():
    """A solve returns every value in the one scalar form: an int when it
    is integral, a Fraction when it is not."""
    model = _mk([("x", VarKind.INTEGER, F(0), F(4)),
                 ("y", VarKind.CONTINUOUS, F(0), F(4))],
                [([(0, 3), (1, 2)], 7)])
    answers = [milp.solve_feasibility(model).assignment,
               milp.maximize(model, {0: F(1)}, 0).assignment,
               milp.maximize(model, {0: 2, 1: 2}, 0).assignment]
    assert answers[2] == {0: 0, 1: F(7, 2)}  # y = 7/2 stays a Fraction
    emip = random_grid_model(random.Random(0xB57), with_objective=True)
    answers += [solve_emip(emip).assignment, maximize_emip(emip).assignment]
    assert all(a is not None for a in answers)
    assert all(type(v) is (int if v.denominator == 1 else Fraction)
               for a in answers for v in a.values())


def _rational_milp(rng):
    """Two to four variables, the first two integer, the others integer or
    continuous with rational bounds; one to four rows and an objective,
    all with rational coefficients.

    Returns (model, objective, rows, bounds): the rows as rational
    ``(coeffs, rhs)`` and each variable's ``(lower, upper)``.
    """
    n = rng.randint(2, 4)
    kinds = [VarKind.INTEGER if i < 2 or rng.random() < 0.5
             else VarKind.CONTINUOUS for i in range(n)]
    bounds = [(F(rng.randint(-2, 0)), F(rng.randint(1, 4)))
              if k is VarKind.INTEGER else
              (random_fraction(rng, -2, 1), random_fraction(rng, 1, 4))
              for k in kinds]
    rows = [
        (tuple((i, random_fraction(rng, -3, 3)) for i in range(n)
               if rng.random() < 0.8),
         random_fraction(rng, -2, 6))
        for _ in range(rng.randint(1, 4))
    ]
    model = MilpModel(
        tuple(Variable("x%d" % i, k, lo, up)
              for i, (k, (lo, up)) in enumerate(zip(kinds, bounds))),
        _int_rows(rows, n),
    )
    objective = {i: random_fraction(rng, -2, 2) for i in range(n)
                 if rng.random() < 0.7}
    return model, objective, rows, bounds


def test_dual_and_two_phase_cold_starts_agree(monkeypatch):
    """A cold LP whose objective row is dual feasible at the all-slack basis
    skips phase 1: one kernel call from the rows as they are.  On seeded
    priced models (covering-like rows with negative right-hand sides,
    positive costs on bounded integer columns, a continuous column at cost
    0 or more) it reaches the verdict and the exact optimum of the
    two-phase start.  That start is forced by one more column, fixed at 0,
    with a negative cost: it breaks dual feasibility and changes no
    value."""
    calls = _record_kernel(monkeypatch)
    rng = random.Random(0xB6B)
    seen = collections.Counter()
    for _ in range(200):
        n = rng.randint(1, 5)
        cont = rng.random() < 0.5
        rows = [(tuple((i, random_fraction(rng, -3, 2)) for i in range(n + cont)
                       if rng.random() < 0.7), random_fraction(rng, -6, 2))
                for _ in range(rng.randint(1, 5))]
        costs = [random_fraction(rng, 1, 4) for _ in range(n)]
        if cont:
            costs.append(random_fraction(rng, 0, 2))
        lowers = [rng.randint(-1, 1) for _ in range(n)]
        uppers = [lo + rng.randint(0, 4) for lo in lowers]
        answers = []
        for forced in (0, 1):  # the last column, fixed at 0, costs -1
            k = n + cont + forced
            cost_row = (tuple(enumerate(costs)) + ((k - 1, -1),) * forced,
                        F(10**6))
            compiled = CompiledRows(_int_rows(rows + [cost_row], k),
                                    lowers + [0] * (cont + forced),
                                    uppers + [None] * cont + [0] * forced,
                                    range(n))
            calls.clear()
            ok, point = solve_lp_feasibility(compiled, lowers, uppers,
                                             objective=len(rows))
            value = ok and sum(c * point[i] for i, c in enumerate(costs))
            answers.append((ok, value))
            first = calls[0]
            if not forced:
                assert len(calls) == 1  # no phase 1
                negative = any(row[first.ncols] < 0
                               for row in first.tableau[:first.nrows])
            elif negative:  # phase 1, on artificial columns
                assert first.ncols > compiled.ncols + first.nrows
            if ok:
                for coeffs, rhs in rows:
                    assert sum(c * point[i] for i, c in coeffs) <= rhs
                assert all(lo <= x <= up
                           for x, lo, up in zip(point, lowers, uppers))
        assert answers[0] == answers[1]
        seen[negative, answers[0][0]] += 1
    assert seen[True, True] > 40 and seen[True, False] > 40


def test_row_scale_does_not_change_an_answer():
    """A row times a positive int has the same solution set, so scaling
    each integer row of an LP by its own factor keeps the verdict and the
    exact optimum.  The seeded models have fractional fixed lower bounds,
    free variables, fractional upper bounds (given as rows, so that they
    are scaled too) and a threshold row ``-sum(c * x) <= -T`` with
    fractional costs c, whose left side three calls in four minimize."""
    rng = random.Random(0xB6C)
    seen = collections.Counter()
    for case in range(300):
        n = rng.randint(1, 4)
        lowers = [None if rng.random() < 0.25 else random_fraction(rng, -3, 1)
                  for _ in range(n)]
        uppers = [None if lo is None or rng.random() < 0.3
                  else lo + random_fraction(rng, 0, 4) for lo in lowers]
        rows = [(tuple((i, random_fraction(rng, -3, 3)) for i in range(n)
                       if rng.random() < 0.8), random_fraction(rng, -5, 5))
                for _ in range(rng.randint(1, 4))]
        costs = [(i, random_fraction(rng, -2, 2)) for i in range(n)]
        threshold = (tuple((i, -c) for i, c in costs), F(-rng.randint(-4, 4)))
        bound_rows = [(((i, F(1)),), up) for i, up in enumerate(uppers)
                      if up is not None]
        int_rows = _int_rows(rows + [threshold] + bound_rows, n)
        objective = len(rows) if case % 4 else None
        answers = []
        for factors in ([1] * len(int_rows),
                        [rng.randint(2, 9) for _ in int_rows]):
            compiled = CompiledRows(
                [(tuple((i, c * s) for i, c in coeffs), rhs * s)
                 for (coeffs, rhs), s in zip(int_rows, factors)],
                lowers, [None] * n)
            ok, point = solve_lp_feasibility(compiled, (), (),
                                             objective=objective)
            value = (None if objective is None or point is None
                     else sum(c * point[i] for i, c in costs))
            answers.append((ok, point is None, value))
            if ok and point is not None:
                for coeffs, rhs in rows + [threshold] + bound_rows:
                    assert sum(c * point[i] for i, c in coeffs) <= rhs
        assert answers[0] == answers[1]
        ok, unbounded, value = answers[0]
        seen["infeasible" if not ok else "unbounded" if unbounded
             else "feasibility" if value is None else "optimum"] += 1
        used = {i for coeffs, _ in rows for i, c in coeffs if c}
        seen["fractional lower"] += any(
            lowers[i] is not None and lowers[i].denominator > 1 for i in used)
        seen["free"] += any(lowers[i] is None for i in used)
        seen["fractional upper"] += any(up is not None and up.denominator > 1
                                        for up in uppers)
        seen["fractional threshold"] += any(c.denominator > 1
                                            for _, c in costs)
    assert min(seen[k] for k in ("infeasible", "unbounded", "feasibility",
                                 "optimum")) > 10
    assert min(seen[k] for k in ("fractional lower", "free",
                                 "fractional upper",
                                 "fractional threshold")) > 100


def test_maximize_compiles_once_and_builds_every_node_tableau(monkeypatch):
    """One compile per ``maximize``; every cold node's first tableau is a
    direct build, with the threshold row at the value the tree holds when
    the node is solved: the phase-1 tableau, or, under an objective row
    dual feasible at the all-slack basis, that basis with the row appended
    as it is, which the node's one kernel call solves.  (A warm node
    re-optimizes the search's live tableau instead;
    ``test_warm_nodes_agree_with_cold_solves`` checks those.)

    Rows, objective coefficients and continuous bounds are rational, so the
    threshold row and the folded shifts carry denominators.
    """
    compiles = []
    nodes = []

    class Counted(CompiledRows):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            compiles.append(1)
            super().__init__(*args, **kwargs)

    real_lp = branch_bound.solve_lp_feasibility
    built = _record_kernel(monkeypatch)

    def lp(rows, lo, up, stats=None, objective=None, **kwargs):
        built.clear()
        threshold_rhs = rows.rhs[-1]
        warm = kwargs["live"].tableau is not None
        result = real_lp(rows, lo, up, stats, objective=objective, **kwargs)
        phase2 = objective is not None and result[0]
        nodes.append((threshold_rhs, list(lo), list(up), warm, phase2,
                      [call.given() for call in built]))
        return result

    monkeypatch.setattr(branch_bound, "CompiledRows", Counted)
    monkeypatch.setattr(branch_bound, "solve_lp_feasibility", lp)
    rng = random.Random(0xB58)
    compared = thresholds = dual = 0
    for case in range(300):
        if case % 2 == 0:
            model, objective, rows, bounds = _rational_milp(rng)
        else:  # the same model at a positive cost on every variable
            objective = {i: -(abs(objective.get(i, 0)) or 1)
                         for i in range(model.n_vars)}
        n = model.n_vars
        den = math.lcm(*(F(c).denominator for c in objective.values()))
        compiles.clear()
        nodes.clear()
        milp.maximize(model, objective, -12)
        assert len(compiles) == 1
        thresholds += len({node[0] for node in nodes}) > 1
        int_idx = model.integer_indices()
        for rhs, lo, up, warm, phase2, tableaux in nodes:
            if warm:
                continue
            threshold = (tuple((i, -c) for i, c in objective.items()),
                         F(rhs, den))
            lowers = [F(b[0]) for b in bounds]
            uppers = [F(b[1]) for b in bounds]
            for j, i in enumerate(int_idx):
                lowers[i], uppers[i] = F(lo[j]), F(up[j])
            direct = rows + [threshold], lowers, uppers
            expected = _dual_start_tableau(*direct, int_idx, len(rows))
            if expected is not None:
                # one kernel call, whatever its verdict
                assert tableaux == [expected]
                dual += any(row[-2] < 0 for row in expected[0][:-1])
                continue
            expected = _per_node_tableau(*direct)
            assert tableaux[:len(tableaux) - phase2] == (
                [] if expected is None else [expected])
            compared += expected is not None
    assert compared > 80 and thresholds > 5 and dual > 50


# ---------------------------------------------------------------------------
# warm starts: one live tableau per search
# ---------------------------------------------------------------------------


def _lowest_terms(tableau):
    """Each row divided by the gcd of its entries: the same rationals."""
    for i, row in enumerate(tableau):
        g = math.gcd(*row)
        tableau[i] = [x // g for x in row]


@pytest.mark.parametrize("lowest_terms", [False, True])
def test_warm_nodes_agree_with_cold_solves(monkeypatch, lowest_terms):
    """Every warm-started node LP gives the verdict and the LP optimum that a
    cold solve of the same box at the same threshold gives, on MILPs with
    rational rows, a rational objective and continuous bounds.

    The threshold row moves between warm nodes when an incumbent raises it.
    With ``lowest_terms`` the live tableau is put in lowest terms before each
    warm node, a form lazy reduction may leave it in, in which a slack column
    need not be a multiple of its row's denominator.
    """
    real_lp = branch_bound.solve_lp_feasibility
    seen = collections.Counter()
    last_threshold = [None]

    def lp(rows, lo, up, stats=None, objective=None, live=None):
        threshold = rows.rhs[-1]
        moved, last_threshold[0] = threshold != last_threshold[0], threshold
        warm = live.tableau is not None
        if warm and lowest_terms:
            _lowest_terms(live.tableau)
        result = real_lp(rows, lo, up, stats, objective=objective, live=live)
        if not warm:
            return result
        cold = real_lp(rows, lo, up, objective=objective)
        assert result[0] == cold[0]
        seen["warm", result[0]] += 1
        seen["threshold moved"] += moved
        if result[0] and objective is not None:
            assert result[1] is not None and cold[1] is not None
            assert value(result[1]) == value(cold[1])
            seen["optimum compared"] += 1
        return result

    monkeypatch.setattr(branch_bound, "solve_lp_feasibility", lp)
    rng = random.Random(0xB61)
    for case in range(250):
        model, objective, _, _ = _rational_milp(rng)
        last_threshold[0] = None

        def value(point, objective=objective):
            return sum(c * point[i] for i, c in objective.items())

        if case % 3:
            milp.maximize(model, objective, -12)
        else:
            milp.solve_feasibility(model)
    assert seen["warm", True] > 100 and seen["warm", False] > 50
    assert seen["optimum compared"] > 50 and seen["threshold moved"] > 10


def test_warm_infeasible_verdicts_come_with_a_farkas_row(monkeypatch):
    """After every warm node LP that ends infeasible, ``violated_row`` finds
    a row of the live tableau that proves the box empty: its basic value is
    below 0 with no negative entry off the basic column, or above its bound
    with no positive one, fixed columns (U = 0) aside.  Every nonbasic
    column reads at least 0, so no point moves that basic value back inside
    its bounds; a fixed column reads exactly 0, its two bounds certifying
    it, so its entry may have either sign.  The seeds reach rows of both
    kinds, and rows with a fixed column of each sign."""
    real_lp = branch_bound.solve_lp_feasibility
    seen = collections.Counter()

    def lp(rows, lo, up, stats=None, objective=None, live=None):
        warm = live.tableau is not None
        result = real_lp(rows, lo, up, stats, objective=objective, live=live)
        if warm and not result[0]:
            tableau, basis, bounds = live.tableau, live.basis, live.bounds
            nrows, width = len(basis), len(tableau[0]) - 2
            k = _kernel.violated_row(tableau, basis, nrows, width, bounds)
            assert k >= 0
            row, b = tableau[k], basis[k]
            others = [row[j] for j in range(width)
                      if j != b and bounds[j] != 0]
            pinned = [row[j] for j in range(width)
                      if j != b and bounds[j] == 0 and row[j]]
            seen["fixed", -1] += any(a < 0 for a in pinned)
            seen["fixed", 1] += any(a > 0 for a in pinned)
            if row[width] < 0:
                assert all(a >= 0 for a in others)
                seen["below 0"] += 1
            else:
                assert row[width] > bounds[b] * row[width + 1]
                assert all(a <= 0 for a in others)
                seen["above the bound"] += 1
        return result

    monkeypatch.setattr(branch_bound, "solve_lp_feasibility", lp)
    rng = random.Random(0xB66)
    for case in range(150):
        model, objective, _, _ = _rational_milp(rng)
        if case % 3:
            milp.maximize(model, objective, -12)
        else:
            milp.solve_feasibility(model)
    assert seen["below 0"] > 20 and seen["above the bound"] > 10
    assert seen["fixed", -1] > 10 and seen["fixed", 1] > 10


def _replay(steps, dense, head, totals, ups):
    """The tableau that pivots and bound flips ``steps`` reach from the
    all-slack start of ``dense`` rows at ``totals``, every row over 1, with
    objective row ``head`` and structural bounds ``ups``.

    A step is ("pivot", row, column), taken by :func:`_kernel.pivot_in`, or
    ("flip", column, None), which substitutes ``U - x`` for that nonbasic
    column.  Returns (tableau, basis, bounds, flipped).
    """
    ncols, m = len(head), len(dense)
    real = ncols + m
    tableau = []
    for k in range(m):
        row = dense[k] + [0] * m + [totals[k], 1]
        row[ncols + k] = 1
        tableau.append(row)
    tableau.append(head + [0] * (m + 1) + [1])
    basis = list(range(ncols, real))
    bounds, flipped = list(ups) + [None] * m, [False] * real
    for kind, a, b in steps:
        if kind == "pivot":
            _kernel.pivot_in(tableau, basis, m, real, a, b, bounds, flipped)
        else:
            for row in tableau:
                row[real] -= row[a] * bounds[a]
                row[a] = -row[a]
            flipped[a] = not flipped[a]
    return tableau, basis, bounds, flipped


def test_moving_right_hand_sides_is_exact_in_any_row_form():
    """One column shift moves a tableau's right-hand sides, both to new
    totals (:func:`_move_rhs`, by the slack columns) and to new bounds of
    its complemented columns (:func:`_move_bounds`): each row gains delta
    times its entry in the column.  Either move gives, as Fractions, the
    tableau that the same pivots and bound flips reach from a start at the
    new totals and bounds, with every other entry and each denominator as
    it was, whether the rows are in lowest terms or keep common factors."""
    rng = random.Random(0xB63)
    seen = collections.Counter()
    for case in range(300):
        ncols, m = rng.randint(1, 3), rng.randint(1, 4)
        real = ncols + m
        dense = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(m)]
        head = [rng.randint(-3, 3) for _ in range(ncols)]
        old = [rng.randint(-20, 20) for _ in range(m)]
        new = [x + rng.choice((0, rng.randint(-5, 5))) for x in old]
        ups = [rng.randint(1, 4) for _ in range(ncols)]
        new_ups = [u + rng.randint(-1, 3) for u in ups]

        # a random walk of pivots and flips from the start at ``old``
        steps = []
        for _ in range(rng.randint(1, 6)):
            tableau, basis, _, _ = _replay(steps, dense, head, old, ups)
            nonbasic = [j for j in range(real) if j not in basis]
            pivots = [("pivot", k, j) for k in range(m) for j in nonbasic
                      if tableau[k][j] > 0]
            flips = [("flip", j, None) for j in nonbasic if j < ncols]
            if not pivots + flips:
                break
            steps.append(rng.choice(flips if rng.random() < 0.5 and flips
                                    else pivots or flips))
        tableau, _, bounds, flipped = _replay(steps, dense, head, old, ups)
        if case % 2:
            _lowest_terms(tableau)
        else:
            tableau = _scaled(tableau, [rng.choice((1, 2, 6))
                                        for _ in range(m + 1)])
        seen["common factor"] += any(math.gcd(*row) > 1 for row in tableau)
        seen["lowest terms"] += any(math.gcd(*row) == 1 for row in tableau)

        def unmoved(rows):
            return [row[:real] + row[real + 1:] for row in rows]

        moved = [list(row) for row in tableau]
        lp_module._move_rhs(moved, real, ncols, old, new)
        expected = _replay(steps, dense, head, new, ups)[0]
        assert _fraction_rows(moved, real) == _fraction_rows(expected, real)
        assert unmoved(moved) == unmoved(tableau)
        seen["totals"] += moved != tableau

        before = [list(row) for row in moved]
        lp_module._move_bounds(moved, real, bounds, flipped, range(ncols),
                               [0] * ncols, new_ups)
        expected = _replay(steps, dense, head, new, new_ups)[0]
        assert _fraction_rows(moved, real) == _fraction_rows(expected, real)
        assert unmoved(moved) == unmoved(before)
        assert bounds[:ncols] == new_ups
        seen["bounds"] += moved != before
    assert seen["totals"] > 150 and seen["bounds"] > 50
    assert seen["common factor"] > 100 and seen["lowest terms"] > 100


def test_warm_starts_keep_the_heavy_ladder_rung_cheap():
    """The heaviest rung of the benchmark ladder's recipe, (m, n) = (9, 160)
    UMM with rng seed 1000 m + n, minimized: its optimum 8 takes 415
    pivots; 26,572 when every node LP started from the all-slack basis."""
    instance = _ladder_cover(random.Random(9160), 9, 160, "umm")
    solution = covering.solve_umm(instance, minimize_cost=True,
                                  node_limit=20000)
    assert solution.cost == 8
    assert solution.stats.pivots < 2000


def test_stats_report_the_largest_tableau_the_kernel_received(monkeypatch):
    calls = _record_kernel(monkeypatch)
    rng = random.Random(0xB59)
    kinds = set()
    for _ in range(30):
        model = random_grid_model(rng, with_objective=True)
        norm = normalize(model)
        lowered, _ = lower(norm)
        coeffs = dict(norm.objective.coeffs)
        calls.clear()
        stats = milp.maximize(lowered, coeffs).stats
        for tableau, _, nrows, ncols, *_ in calls:
            assert len(tableau) == nrows + 1
            assert all(len(row) == ncols + 2 for row in tableau)
        shapes = [(call.nrows, call.ncols) for call in calls]
        assert stats.pivots == sum(call.pivots for call in calls)
        assert stats.max_tableau == max(shapes, key=lambda s: (s[0] * s[1], s[0]),
                                        default=(0, 0))
        kinds.add((len(set(shapes)) > 1, stats.max_depth > 0))
    assert (True, True) in kinds  # shapes vary and the search branches


def test_stats_pin_depth_and_tableau_on_a_branching_search():
    # 2x + 2y = 7 over integers: every LP is 2 rows by 5 columns (the
    # bounds are column bounds); proving it empty goes 6 branchings deep
    model = _mk(
        [("x", VarKind.INTEGER, F(0), F(3)), ("y", VarKind.INTEGER, F(0), F(3))],
        [([(0, 2), (1, 2)], 7), ([(0, -2), (1, -2)], -7)],
    )
    stats = milp.solve_feasibility(model).stats
    assert (stats.nodes, stats.max_depth, stats.max_tableau) == (13, 6, (2, 5))


# ---------------------------------------------------------------------------
# simple rounding: one incumbent before the first branch
# ---------------------------------------------------------------------------


def _knapsackish():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                        "knapsackish.json")
    with open(path) as fh:
        return EmipModel.from_json(json.load(fh))


def _record_lps(monkeypatch, corrupt=None):
    """Log (lowers, uppers, feasible, point, rounding) of every LP a search
    solves; ``corrupt`` may rewrite the point of each rounding LP before
    the search sees it.  An LP is a rounding LP when the search's
    ``stats.rounding_lps`` has grown since its previous LP: the search
    counts a rounding LP just before it solves it."""
    calls = []
    counted = {}  # id(stats) -> (stats, its rounding_lps at its last LP)
    real_lp = branch_bound.solve_lp_feasibility

    def lp(rows, lo, up, stats=None, **kwargs):
        _, before = counted.get(id(stats), (stats, 0))
        rounding = stats.rounding_lps > before
        counted[id(stats)] = stats, stats.rounding_lps
        feasible, point = real_lp(rows, lo, up, stats, **kwargs)
        if corrupt is not None and rounding and feasible:
            point = corrupt(list(point))
        calls.append((list(lo), list(up), feasible, point, rounding))
        return feasible, point

    monkeypatch.setattr(branch_bound, "solve_lp_feasibility", lp)
    return calls


def test_rounding_tries_the_ceiling_then_the_floor_once(monkeypatch):
    """On knapsackish the root vertex is fractional: every integer variable
    at its ceiling gives an empty box, at its floor the optimum 8.  The
    root's own LP bound rounds down to 8 too, so the root is not branched,
    and no other rounding LP runs."""
    calls = _record_lps(monkeypatch)
    result = maximize_emip(_knapsackish())
    assert result.best == 8
    stats = result.stats
    assert (stats.nodes, stats.lp_calls, stats.rounding_lps,
            stats.infeasible_lps, stats.max_depth) == (1, 3, 2, 1, 0)
    (_, _, _, root, at_root), (ceil_lo, ceil_up, ceil_ok, _, ceil), \
        (floor_lo, floor_up, floor_ok, rounded, floor) = calls
    assert (at_root, ceil, floor) == (False, True, True)
    ints = root[:2]  # x and y, the integer variables, come first
    assert any(type(x) is F for x in ints)
    assert ceil_lo == ceil_up == [math.ceil(x) for x in ints] and not ceil_ok
    assert floor_lo == floor_up == [math.floor(x) for x in ints] and floor_ok
    assert rounded[:2] == [2, 6]
    assert result.assignment[0] == 2 and result.assignment[1] == 6
    assert stats.rounding_lps == 2


def test_rounding_runs_at_most_twice_per_search(monkeypatch):
    """Rounding LPs are the LPs of a search that solve no node: simple
    rounding's two boxes at most per optimization, plus at most one trial
    of the greedy floor per integer variable, none in a feasibility search,
    and never counted as nodes, so the node limit still bounds the nodes
    alone."""
    calls = _record_lps(monkeypatch)
    rng = random.Random(0xB64)
    rounded = collections.Counter()
    for _ in range(150):
        model, objective, _, _ = _rational_milp(rng)
        del calls[:]
        stats = milp.maximize(model, objective, -12).stats
        assert stats.rounding_lps <= 2 + len(model.integer_indices())
        assert stats.lp_calls == len(calls) == stats.nodes + stats.rounding_lps
        assert sum(rounding for *_, rounding in calls) == stats.rounding_lps
        rounded[stats.rounding_lps] += 1
        assert milp.solve_feasibility(model).stats.rounding_lps == 0
    assert rounded[1] > 10 and rounded[2] > 10


def _without_greedy_floor(monkeypatch):
    """Replace the greedy floor by one that returns the ceiling point as
    it is."""
    monkeypatch.setattr(branch_bound, "_greedy_floor",
                        lambda rows, values, fixed, found, *rest: found)


def _live_state(live):
    return ([list(row) for row in live.tableau], list(live.basis),
            list(live.totals), list(live.bounds), list(live.flipped))


def test_greedy_floor_leaves_the_live_tableau_as_it_was(monkeypatch):
    """The greedy floor's trials run on a copy of the search's live tableau:
    its rows, basis, right-hand-side totals, bounds and complemented
    columns are the same before and after, so the next node starts from the
    tableau simple rounding left.  Each trial is one rounding LP."""
    real = branch_bound._greedy_floor
    seen = collections.Counter()

    def spy(rows, values, fixed, found, int_idx, stats, objective, live,
            coeffs, goal):
        before = _live_state(live)
        lps = stats.rounding_lps
        better = real(rows, values, fixed, found, int_idx, stats, objective,
                      live, coeffs, goal)
        assert _live_state(live) == before
        trials = stats.rounding_lps - lps
        assert trials <= sum(q > 1 for _, q in values)
        seen["trials"] += trials
        seen["improved"] += better is not found
        return better

    monkeypatch.setattr(branch_bound, "_greedy_floor", spy)
    rng = random.Random(0xB68)
    for m in range(3, 8):
        for kind in ("umm", "wsm") * 8:
            instance = _ladder_cover(rng, m, 3 * m + 6, kind)
            getattr(covering, "solve_" + kind)(instance, minimize_cost=True)
    assert seen["trials"] > 40 and seen["improved"] > 10


def test_greedy_floor_never_grows_a_ladder_tree(monkeypatch):
    """On seeded ladder covers with m = 3..7 the greedy floor finds the
    same optima in at most as many nodes as the ceiling point alone, and
    in fewer on some."""
    covers = []
    for m in range(3, 8):
        for n in (2 * m + 4, 3 * m + 6):
            for kind in ("umm", "wsm"):
                for seed in range(6):
                    rng = random.Random(1000 * m + n + 100 * seed)
                    covers.append((kind, _ladder_cover(rng, m, n, kind)))

    def solve_all():
        return [getattr(covering, "solve_" + kind)(instance,
                                                   minimize_cost=True)
                for kind, instance in covers]

    greedy = solve_all()
    _without_greedy_floor(monkeypatch)
    plain = solve_all()
    fewer = 0
    for a, b in zip(greedy, plain):
        assert a.cost == b.cost
        assert a.stats.nodes <= b.stats.nodes
        fewer += a.stats.nodes < b.stats.nodes
    assert fewer > 10


def test_greedy_floor_settles_a_ladder_cover_at_the_root(monkeypatch):
    """A ladder cover, (7, 18) UMM with rng seed 7018, whose ceiling point
    misses a root bound that is the optimum 2: the greedy floor lowers it
    to the bound, and the search ends at its root, where the ceiling
    point alone takes 17 nodes."""
    instance = _ladder_cover(random.Random(7018), 7, 18, "umm")
    solution = covering.solve_umm(instance, minimize_cost=True)
    assert solution.cost == 2 and solution.stats.nodes == 1
    assert solution.stats.rounding_lps > 1
    _without_greedy_floor(monkeypatch)
    solution = covering.solve_umm(instance, minimize_cost=True)
    assert solution.cost == 2 and solution.stats.nodes == 17
    assert solution.stats.rounding_lps == 1


def test_a_corrupted_rounding_point_fails_the_exact_recheck(monkeypatch):
    """A rounded point is re-checked like any incumbent: one the LP layer
    got wrong raises instead of becoming the answer."""

    def corrupt(point):
        point[1] += 1  # y = 7, above its upper bound 6
        return point

    _record_lps(monkeypatch, corrupt)
    with pytest.raises(milp.SolverInternalError, match="failed exact re-check"):
        maximize_emip(_knapsackish())


def test_rounding_keeps_the_heavy_ladder_trees_small():
    """Two heavy covers on the benchmark ladder's recipe (rng seed
    1000 m + n, minimum count): the rounded root is an early incumbent, so
    (8, 160) UMM takes 115 nodes and (12, 300) UMM 122, against 850 and
    2,883 when the first incumbent came from an integral vertex."""
    for m, n, cost, most in ((8, 160, 9, 150), (12, 300, 10, 200)):
        instance = _ladder_cover(random.Random(1000 * m + n), m, n, "umm")
        solution = covering.solve_umm(instance, minimize_cost=True,
                                      node_limit=20000)
        assert solution.cost == cost
        assert solution.stats.nodes <= most


def test_column_bounds_keep_the_heavy_trees_and_shrink_their_tableaus():
    """Three heavy covers, searched at the root bound from a dual cold
    start, with fixed columns kept out of the basis and the ceiling point
    lowered greedily, pinned at their nodes and pivots: (8, 160) UMM takes
    28 and 358, (12, 300) 1 and 66 and (10, 200) 1 and 134, against 22 and
    293, 80 and 389 and 201 and 1,628 with fixed columns entering and the
    ceiling point as rounding left it, and 115 and 1,049, 122 and 875 and
    619 and 9,329 when the threshold only climbed past each incumbent from
    a two-phase root.  With the integer bounds as column bounds their
    largest tableaus keep only model rows: 71 of 192 at (8, 160), 27 of 315
    at (12, 300) and 31 of 218 at (10, 200), the budget held by the
    threshold row alone."""
    for m, n, nodes, pivots, rows in ((8, 160, 28, 358, 80),
                                      (12, 300, 1, 66, 30),
                                      (10, 200, 1, 134, 32)):
        instance = _ladder_cover(random.Random(1000 * m + n), m, n, "umm")
        stats = covering.solve_umm(instance, minimize_cost=True,
                                   node_limit=20000).stats
        assert (stats.nodes, stats.pivots) == (nodes, pivots)
        assert stats.max_tableau[0] <= rows

