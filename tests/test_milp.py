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

from generators import grid_best, grid_feasible, random_fraction, random_grid_model
from pwlmip import _kernel, covering, milp
from pwlmip._kernel import phase1 as integer_phase1
from pwlmip.emip import EmipConstraint, EmipModel, Variable, VarKind, normalize
from pwlmip.milp import branch_bound
from pwlmip.milp import lp as lp_module
from pwlmip.milp.branch_bound import resolve_node_limit
from pwlmip.milp.lp import CompiledRows, solve_lp_feasibility
from pwlmip.milp.model import MilpModel, MilpVariable, integer_row
from pwlmip.pipeline import maximize_emip, minimize_budget, objective_bracket, solve_emip
from pwlmip.pwl import PwlFunction, Shape
from pwlmip.reduction import lower
from reference_kernel import bounded_phase1
from reference_kernel import phase1 as reference_phase1

F = Fraction


def _mk(variables, rows):
    return MilpModel(tuple(MilpVariable(*v) for v in variables),
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
    ok, point, pivots = solve_lp_feasibility(_int_rows(rows, 1), [F(0)], [F(10)])
    assert ok and 1 <= point[0] <= 2
    ok, point, _ = solve_lp_feasibility(
        _int_rows([(((0, F(-1)),), F(-11))], 1), [F(0)], [F(10)]
    )
    assert not ok


def test_lp_handles_free_variables():
    # x free, x <= -3 and -x <= -(-5) i.e. x >= -5
    rows = [(((0, F(1)),), F(-3)), (((0, F(-1)),), F(5))]
    ok, point, _ = solve_lp_feasibility(_int_rows(rows, 1), [None], [None])
    assert ok and -5 <= point[0] <= -3


def test_lp_negative_rhs_exercises_artificials():
    # x + y >= 4 written as -x - y <= -4, within [0, 3] each
    rows = _int_rows([(((0, F(-1)), (1, F(-1))), F(-4))], 2)
    ok, point, _ = solve_lp_feasibility(rows, [F(0), F(0)], [F(3), F(3)])
    assert ok and point[0] + point[1] >= 4
    rows = _int_rows([(((0, F(-1)), (1, F(-1))), F(-7))], 2)
    ok, _, _ = solve_lp_feasibility(rows, [F(0), F(0)], [F(3), F(3)])
    assert not ok


def test_lp_exact_rational_vertex():
    # 3x = 1 has the exact solution 1/3
    rows = [(((0, F(3)),), F(1)), (((0, F(-3)),), F(-1))]
    ok, point, _ = solve_lp_feasibility(_int_rows(rows, 1), [F(0)], [F(1)])
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
    result = milp.maximize(model, {0: F(1), 1: F(1)}, 0, 8)
    assert result.feasible and result.best == 4
    x, y = result.assignment[0], result.assignment[1]
    assert x + y >= 4 and x + 2 * y <= 6
    # one past the optimum is infeasible: the bracket [T*+1, hi] finds nothing
    past = milp.maximize(model, {0: F(1), 1: F(1)}, 5, 8)
    assert not past.feasible


def test_maximize_empty_bracket():
    model = _mk([("x", VarKind.INTEGER, F(0), F(2))], [([(0, 1)], 2)])
    with pytest.raises(ValueError, match="bracket"):
        milp.maximize(model, {0: F(1)}, 3, 2)


def test_maximize_entire_bracket_feasible():
    model = _mk([("x", VarKind.INTEGER, F(0), F(5))], [([(0, 1)], 5)])
    result = milp.maximize(model, {0: F(1)}, 0, 5)
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
        from pwlmip.pipeline import objective_bracket

        lo, hi = objective_bracket(norm, coeffs)
        result = milp.maximize(lowered, coeffs, lo, hi)
        if truth is None:
            assert not result.feasible
        else:
            signed = truth if norm.objective.sense == "max" else -truth
            assert result.feasible
            # largest integer threshold below the exact optimum
            import math

            assert result.best == math.floor(signed)
        checked += 1


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
    full = milp.maximize(model, {0: F(1), 1: F(1)}, 0, 12)
    assert full.feasible and full.best == 4
    assert len(trees) == 1 and full.stats.probes == 1
    nodes = full.stats.nodes
    assert nodes > 1 and full.stats.max_depth > 0
    assert full.stats.rounding_lps == 2
    # a budget of exactly the tree completes it; one node less runs out
    again = milp.maximize(model, {0: F(1), 1: F(1)}, 0, 12, node_limit=nodes)
    assert again.best == 4 and again.stats == full.stats
    with pytest.raises(milp.ResourceExhausted) as exc:
        milp.maximize(model, {0: F(1), 1: F(1)}, 0, 12, node_limit=nodes - 1)
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
        tuple(MilpVariable("x%d" % i, VarKind.INTEGER if i < n_int
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


def test_maximize_one_tree_against_enumeration(monkeypatch):
    """The one-tree ``maximize`` against enumeration on seeded random MILPs:
    integer and continuous objective variables, rational coefficients and
    ties, brackets that hold the optimum, end below it or start above it,
    and objectives unbounded on every feasible node LP."""
    unbounded_lps = []
    real_lp = branch_bound.solve_lp_feasibility

    def lp(*args, **kwargs):
        result = real_lp(*args, **kwargs)
        unbounded_lps.append(result[0] and result[1] is None)
        return result

    monkeypatch.setattr(branch_bound, "solve_lp_feasibility", lp)
    rng = random.Random(0xB60)
    seen = collections.Counter()
    for case in range(500):
        unbounded = case % 4 == 3
        model, objective, optimum, ties = _random_milp(rng, unbounded)
        if optimum is None:
            mode = "empty"
            lo = rng.randint(-6, 0)
            hi = lo + rng.randint(0, 6)
        elif optimum == math.inf:
            mode = "unbounded"
            lo = rng.randint(-6, 0)
            hi = lo + rng.randint(0, 8)
        else:
            mode = rng.choice(("inside", "hi below", "lo above"))
            top = math.floor(optimum)
            if mode == "inside":
                lo, hi = top - rng.randint(0, 3), top + rng.randint(0, 3)
            elif mode == "hi below":
                hi = top - rng.randint(1, 3)
                lo = hi - rng.randint(0, 2)
            else:
                lo = top + rng.randint(1, 2)
                hi = lo + rng.randint(0, 2)
        del unbounded_lps[:]
        result = milp.maximize(model, objective, lo, hi)
        if optimum is None or optimum < lo:
            assert not result.feasible and result.best is None
        else:
            assert result.feasible
            assert result.best == min(hi, math.floor(optimum)
                                      if optimum != math.inf else hi)
            witness = result.assignment
            assert model.check_assignment(witness) == []
            assert sum(c * witness[i] for i, c in objective.items()) \
                >= result.best
        seen[mode, result.feasible] += 1
        seen["empty with z"] += unbounded and optimum is None
        seen["ties"] += ties > 1
        seen["branched"] += result.stats.max_depth > 0
        seen["continuous objective"] += any(
            model.variables[i].kind is VarKind.CONTINUOUS and c
            for i, c in objective.items())
        seen["unbounded lp"] += any(unbounded_lps)
    for key in (("inside", True), ("hi below", True), ("lo above", False),
                ("empty", False), ("unbounded", True), "empty with z"):
        assert seen[key] >= 5, key
    assert seen["ties"] >= 10 and seen["branched"] >= 20
    assert seen["continuous objective"] >= 50 and seen["unbounded lp"] >= 10


def test_maximize_rejects_unknown_objective_variable():
    model = _mk([("x", VarKind.INTEGER, F(0), F(2))], [([(0, 1)], 2)])
    with pytest.raises(ValueError, match="unknown variable"):
        milp.maximize(model, {3: F(1)}, 0, 2)


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


def _assert_agrees_with_reference(tableau, basis, nrows, ncols, **bounded):
    """Pivot an integer tableau in place and its Fractions by the reference,
    its bounded rule when the call carries bounds, flags and ranks.

    Returns the pivot count and the phase-1 optimum.
    """
    expected = _fraction_rows(tableau, ncols)
    expected_basis = list(basis)
    if bounded:
        expected_flipped = list(bounded["flipped"])
        expected_pivots = bounded_phase1(
            expected, expected_basis, nrows, ncols, bounded["bounds"],
            expected_flipped, bounded["ranks"])
    else:
        expected_pivots = reference_phase1(expected, expected_basis, nrows,
                                           ncols)
    pivots = integer_phase1(tableau, basis, nrows, ncols, **bounded)
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
    count, and the tableau as the kernel left it (a copy: after phase 1 the
    LP goes on pivoting the same rows)."""

    tableau: list
    basis: list
    nrows: int
    ncols: int
    pivots: int
    final: list

    def given(self):
        return self.tableau, self.basis, self.nrows, self.ncols


def _record_kernel(monkeypatch, pivot=integer_phase1):
    """Route every ``_kernel.phase1`` call through ``pivot`` and record it.

    Returns the list each call is appended to as a :class:`KernelCall`.
    The keyword arguments (column bounds, flags and ranks) are forwarded
    when some column carries a bound; without one they say what the
    kernel's defaults say.
    """
    calls = []

    def record(tableau, basis, nrows, ncols, **bounded):
        if all(u is None for u in bounded.get("bounds", ())):
            bounded = {}
        given = [list(row) for row in tableau], list(basis), nrows, ncols
        pivots = pivot(tableau, basis, nrows, ncols, **bounded)
        calls.append(KernelCall(*given, pivots, [list(row) for row in tableau]))
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
        pivots = integer_phase1(plain, plain_basis, nrows, ncols)
        assert integer_phase1(scaled, scaled_basis, nrows, ncols) == pivots
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


def test_bounded_kernel_takes_the_explicit_row_pivots():
    """A cold phase 1 over integer variables with binding upper bounds takes
    as many pivots, and ends at the same vertex, with each bound a column
    bound as with each bound a row ``x <= up`` under the plain Fraction rule.

    The bounded tableau leaves the bound rows out; its ranks, as compiled
    rows give them, are the indices the explicit tableau gives each column
    and each bound's slack.
    The kernel agrees with the bounded Fraction rule pivot for pivot, and
    that rule reports the bound flips and the variables that leave at their
    upper bound on the way.
    """
    rng = random.Random(0xB65)
    events = collections.Counter()
    compared = 0
    for _ in range(100):
        n = rng.randint(2, 5)
        lowers = [rng.randint(-2, 1) for _ in range(n)]
        uppers = [lo + rng.randint(0, 4) for lo in lowers]
        rows = [
            (tuple((i, random_fraction(rng, -3, 3)) for i in range(n)
                   if rng.random() < 0.8),
             random_fraction(rng, -5, 5))
            for _ in range(rng.randint(1, 4))
        ]
        # most boxes get a row that needs some variables near their top
        if rng.random() < 0.8:
            weights = [rng.randint(1, 3) for _ in range(n)]
            top = sum(w * up for w, up in zip(weights, uppers))
            rows.append((tuple((i, F(-w)) for i, w in enumerate(weights)),
                         F(-top + rng.randint(0, 3))))
        explicit = _per_node_tableau(rows, lowers, uppers)
        if explicit is None:
            continue
        bounded = _per_node_tableau(rows, lowers, uppers, range(n))
        tableau, basis, nrows, ncols = explicit
        rational = _fraction_rows(tableau, ncols)
        pivots = reference_phase1(rational, basis, nrows, ncols)
        vertex = _basic_values(rational, basis, nrows, ncols, n)

        # The explicit tableau's rows are the bounded one's, then the bounds.
        tableau, basis, nrows, width = bounded
        real = n + nrows
        ranks = (list(range(real)) + list(range(real + n, width + n)),
                 [real + j for j in range(n)])
        low, high = CompiledRows(_int_rows(rows, n), lowers, uppers,
                                 range(n)).ranks
        assert (low[:width], high) == ranks
        bounds = [up - lo for lo, up in zip(lowers, uppers)]
        bounds += [None] * (width - n)
        flipped = [False] * width
        rational = _fraction_rows(tableau, width)
        reference_flipped, reference_basis, seen = list(flipped), list(basis), []
        assert bounded_phase1(rational, reference_basis, nrows, width, bounds,
                              reference_flipped, ranks, seen) == pivots
        assert integer_phase1(tableau, basis, nrows, width, bounds=bounds,
                              flipped=flipped, ranks=ranks) == pivots
        assert (basis, flipped) == (reference_basis, reference_flipped)
        assert _fraction_rows(tableau, width) == rational
        values = _basic_values(rational, basis, nrows, width, n)
        assert [bounds[j] if flipped[j] else x
                for j, x in enumerate(values)] == vertex
        events.update(seen)
        compared += 1
    assert compared > 90
    assert events["flip"] > 100 and events["upper"] > 30


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
    variables = tuple(MilpVariable("x%d" % i, VarKind.INTEGER, 0,
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
    minimum-cost covers with m = 5..7 and on knapsacks with rational rows
    and a rational objective no final tableau entry needs more than 64
    bits."""
    calls = _record_kernel(monkeypatch)
    rng = random.Random(0xB5C)
    for m, n in ((5, 20), (6, 22), (7, 30)):
        for kind in ("umm", "wsm", "umm", "wsm"):
            instance = _ladder_cover(rng, m, n, kind)
            getattr(covering, "solve_" + kind)(instance, minimize_cost=True)
    rational = len(calls)
    for n in (6, 8, 10, 12):
        model, objective = _rational_knapsack(rng, n)
        milp.maximize(model, objective, 0, 6 * sum(objective.values()))
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
    lowered models and on MILPs with continuous variables and unbounded
    objectives.  A cold call starts from a feasible basis; a warm one, whose
    right-hand sides may be negative, from a dual-feasible objective row."""
    calls = _record_kernel(monkeypatch, _checked_phase1)
    phase2 = _phase2_calls(monkeypatch, calls)
    rng = random.Random(0xB5E)
    for _ in range(80):
        norm = normalize(random_grid_model(rng, with_objective=True))
        lowered, _ = lower(norm)
        coeffs = dict(norm.objective.coeffs)
        milp.maximize(lowered, coeffs, *objective_bracket(norm, coeffs))
    for case in range(150):
        model, objective, _, _ = _random_milp(rng, unbounded=case % 3 == 0)
        milp.maximize(model, objective, -6, 6)
    unbounded = warm_calls = 0
    for (tableau, basis, nrows, ncols, _, final), warm in phase2:
        obj = tableau[nrows]
        assert sorted(set(basis)) == sorted(basis) and max(basis) < ncols
        for k, b in enumerate(basis):
            assert obj[b] == 0
            assert warm or tableau[k][ncols] >= 0
            assert [row[b] for row in tableau[:nrows]] == [
                row[ncols + 1] if i == k else 0
                for i, row in enumerate(tableau[:nrows])]
        if warm:
            assert min(obj[:ncols]) >= 0
            warm_calls += 1
        unbounded += min(final[nrows][:ncols]) < 0
    assert len(phase2) > 150 and unbounded > 20 and warm_calls > 20
    assert sum(call.pivots for call, _ in phase2) > 200


def test_phase2_drives_a_basic_artificial_out(monkeypatch):
    """x + y = 2, written twice as two rows each, leaves an artificial
    basic at zero after phase 1; its row's first nonzero real entry is
    negative, so the row is negated and pivoted on it.  Phase 2 then sees
    no artificial column."""
    bases = []

    def checked(tableau, basis, nrows, ncols):
        pivots = _checked_phase1(tableau, basis, nrows, ncols)
        bases.append(list(basis))
        return pivots

    calls = _record_kernel(monkeypatch, checked)
    rows = _int_rows([(((0, F(1)), (1, F(1))), F(2)),
                      (((0, F(-1)), (1, F(-1))), F(-2)),
                      (((0, F(-1)), (1, F(-1))), F(-2)),
                      (((0, F(-1)),), F(0))], 2)
    compiled = CompiledRows(rows, [F(0), F(0)], [F(3), F(3)])
    ok, point, pivots = solve_lp_feasibility(compiled, (), (), objective=3)
    assert ok and point == [2, 0]
    first, second = calls
    real = compiled.ncols + first.nrows  # structural and slack columns
    assert first.ncols > real
    left = [k for k, b in enumerate(bases[0]) if b >= real]
    assert left and all(first.final[k][first.ncols] == 0 for k in left)
    assert all(next(x for x in first.final[k][:real] if x) < 0 for k in left)
    assert (second.nrows, second.ncols) == (first.nrows, real)
    assert max(second.basis) < real
    assert pivots == first.pivots + second.pivots


def test_lp_rational_rows_and_bounds(monkeypatch):
    built = _record_kernel(monkeypatch, _checked_phase1)
    rng = random.Random(0xB54)
    verdicts = set()
    compared = 0
    for case in range(150):
        n = rng.randint(1, 4)
        orthant = case % 3 == 0  # x >= 0 only: no shift, split or bound rows
        lowers = [F(0) if orthant else None if rng.random() < 0.3
                  else random_fraction(rng, -3, 2) for _ in range(n)]
        uppers = [None if orthant or lo is None or rng.random() < 0.3
                  else lo + random_fraction(rng, 0, 4) for lo in lowers]
        rows = [
            (tuple((i, random_fraction(rng, -3, 3)) for i in range(n)),
             random_fraction(rng, -5, 5))
            for _ in range(rng.randint(1, 4))
        ]
        built.clear()
        ok, point, _ = solve_lp_feasibility(_int_rows(rows, n), lowers, uppers)
        verdicts.add(ok)
        if orthant and built:
            dense = [([c for _, c in coeffs], rhs) for coeffs, rhs in rows]
            first = built[0]
            assert ((_fraction_rows(first.tableau, first.ncols), first.basis)
                    == _phase1_tableau(dense, n)[:2])
            compared += 1
        if ok:
            for coeffs, rhs in rows:
                assert sum(c * point[i] for i, c in coeffs) <= rhs
            for x, lo, up in zip(point, lowers, uppers):
                assert lo is None or x >= lo
                assert up is None or x <= up
    assert verdicts == {True, False}
    assert compared > 10


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
        (2, 4, F(1, 2), 2, (6, 4)),
        (2, 5, F(1, 2), F(5, 2), (8, 4)),
        (4, 6, -1, F(3, 2), (10, 4)),
    ]
    for a, b, lo, value, row in cases:
        calls.clear()
        ok, point, _ = solve_lp_feasibility(
            _int_rows([(((0, F(-a)),), F(-b))], 1), [lo], [None])
        assert ok and point == [value]
        assert type(point[0]) is (int if value.denominator == 1 else Fraction)
        assert tuple(calls[-1].final[0][-2:]) == row

    # x's basic row keeps a common factor 4 and reads 20 over 4
    calls.clear()
    rows = _int_rows([(((0, F(-1)), (1, F(3))), F(-5)),
                      (((0, F(-4)), (1, F(2))), F(-1))], 2)
    ok, point, _ = solve_lp_feasibility(rows, [0, 0], [None, None])
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
        ok, point, _ = solve_lp_feasibility(_int_rows(rows, n), lowers,
                                            [None] * n)
        for x in point if ok else ():
            assert type(x) is (int if x.denominator == 1 else Fraction)
            kinds.add(type(x))
    assert kinds == {int, Fraction}


def _per_node_tableau(rows, lowers, uppers, moving=()):
    """The phase-1 tableau built straight from Fraction rows and bounds.

    The direct construction that compiled rows replace: shift or split every
    column, scale each row (bound rows included) by the lcm of its
    denominators, then add slacks, artificials and the priced-out objective.
    The ``moving`` variables' upper bounds are column bounds, not rows.
    Returns (tableau, basis, nrows, ncols), or None when the all-slack basis
    is already feasible and no kernel call is needed.
    """
    col_of, ncols = [], 0
    for lo in lowers:
        col_of.append((ncols,) if lo is not None else (ncols, ncols + 1))
        ncols += len(col_of[-1])
    bound_rows = [(((i, F(1)),), up) for i, up in enumerate(uppers)
                  if up is not None and i not in moving]
    int_rows = []
    for coeffs, rhs in list(rows) + bound_rows:
        den = rhs.denominator
        for i, c in coeffs:
            if c:
                den = math.lcm(den, c.denominator * (
                    lowers[i].denominator if lowers[i] is not None else 1))
        dense = [0] * ncols
        total = rhs * den
        for i, c in coeffs:
            dense[col_of[i][0]] += int(c * den)
            if lowers[i] is not None:
                total -= c * den * lowers[i]
            else:
                dense[col_of[i][1]] -= int(c * den)
        assert total.denominator == 1
        int_rows.append((dense, int(total), den))
    m = len(int_rows)
    n_art = sum(1 for _, rhs, _ in int_rows if rhs < 0)
    if not n_art:
        return None
    tableau, basis, art = [], [], ncols + m
    for k, (dense, rhs, den) in enumerate(int_rows):
        sign = -1 if rhs < 0 else 1
        row = [sign * c for c in dense] + [0] * (m + n_art) + [sign * rhs, den]
        row[ncols + k] = sign * den
        if rhs < 0:
            row[art] = den
            basis.append(art)
            art += 1
        else:
            basis.append(ncols + k)
        tableau.append(row)
    art_rows = [row for row, b in zip(tableau, basis) if b >= ncols + m]
    obj_den = math.lcm(*(row[-1] for row in art_rows))
    obj = [-sum(F(row[j], row[-1]) for row in art_rows) * obj_den
           for j in range(ncols + m + n_art + 1)]
    obj = [int(x) for x in obj] + [obj_den]
    for b in basis:
        if b >= ncols + m:
            obj[b] = 0
    tableau.append(obj)
    return tableau, basis, m, ncols + m + n_art


def test_compiled_rows_build_the_per_node_tableau(monkeypatch):
    """One compiled row set serves every node of a search entry for entry.

    Rows and the fixed variables' bounds are rational or None; the moving
    variables get int bounds at each node, moved the way branching moves
    them (an integer floor as upper, floor + 1 as lower).
    """
    built = _record_kernel(monkeypatch)
    rng = random.Random(0xB55)
    compared = rational_lowers = moved = 0
    for _ in range(80):
        n = rng.randint(1, 5)
        moving = [i for i in range(n) if rng.random() < 0.4]
        lowers = [rng.randint(-3, 1) if i in moving
                  else None if rng.random() < 0.2
                  else random_fraction(rng, -3, 2) for i in range(n)]
        uppers = [lo + rng.randint(0, 5) if i in moving
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
            expected = _per_node_tableau(rows, lo, up, moving)
            built.clear()
            result = solve_lp_feasibility(compiled, [lo[i] for i in moving],
                                          [up[i] for i in moving])
            assert ([call.given() for call in built]
                    == ([] if expected is None else [expected]))
            assert result == solve_lp_feasibility(_int_rows(rows, n), lo, up)
            compared += expected is not None
            rational_lowers += rational and expected is not None
            moved += expected is not None and any(lo[i] for i in moving)
    assert compared > 150 and rational_lowers > 100 and moved > 100


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
            assert not milp.maximize(model, {0: F(1)}, -9, 9).feasible
            continue
        assert holds(*result.assignment.values())
        assert result.assignment[0] in {x for x, _ in points}
        for c in (F(1), F(-1), F(2, 3)):
            best = max(math.floor(c * x) for x, _ in points)
            got = milp.maximize(model, {0: c}, best - 3, best + 3)
            assert got.best == best
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
    assert not milp.maximize(model, {1: F(1)}, 0, 4).feasible


def test_assignments_are_exact():
    """A solve returns every value in the one scalar form: an int when it
    is integral, a Fraction when it is not."""
    model = _mk([("x", VarKind.INTEGER, F(0), F(4)),
                 ("y", VarKind.CONTINUOUS, F(0), None)],
                [([(0, 3), (1, 2)], 7)])
    answers = [milp.solve_feasibility(model).assignment,
               milp.maximize(model, {0: F(1)}, 0, 4).assignment,
               milp.maximize(model, {0: 2, 1: 2}, 0, 10).assignment]
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
        tuple(MilpVariable("x%d" % i, k, lo, up)
              for i, (k, (lo, up)) in enumerate(zip(kinds, bounds))),
        _int_rows(rows, n),
    )
    objective = {i: random_fraction(rng, -2, 2) for i in range(n)
                 if rng.random() < 0.7}
    return model, objective, rows, bounds


def test_maximize_compiles_once_and_builds_every_node_tableau(monkeypatch):
    """One compile per ``maximize``; every cold node's phase-1 tableau is a
    direct build, with the threshold row at the value the tree holds when
    the node is solved.  (A warm node re-optimizes the search's live
    tableau instead; ``test_warm_nodes_agree_with_cold_solves`` checks
    those.)

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
        nodes.append((threshold_rhs, list(lo), list(up), warm,
                      [call.given() for call in built[:len(built) - phase2]]))
        return result

    monkeypatch.setattr(branch_bound, "CompiledRows", Counted)
    monkeypatch.setattr(branch_bound, "solve_lp_feasibility", lp)
    rng = random.Random(0xB58)
    compared = thresholds = 0
    for _ in range(150):
        model, objective, rows, bounds = _rational_milp(rng)
        n = model.n_vars
        _, _, den = integer_row(((i, -c) for i, c in objective.items()), 0, n)
        compiles.clear()
        nodes.clear()
        milp.maximize(model, objective, -12, 12)
        assert len(compiles) == 1
        thresholds += len({rhs for rhs, _, _, _, _ in nodes}) > 1
        int_idx = model.integer_indices()
        for rhs, lo, up, warm, tableaux in nodes:
            if warm:
                continue
            threshold = (tuple((i, -c) for i, c in objective.items()),
                         F(rhs, den))
            lowers = [F(b[0]) for b in bounds]
            uppers = [F(b[1]) for b in bounds]
            for j, i in enumerate(int_idx):
                lowers[i], uppers[i] = F(lo[j]), F(up[j])
            expected = _per_node_tableau(rows + [threshold], lowers, uppers,
                                         int_idx)
            assert tableaux == ([] if expected is None else [expected])
            compared += expected is not None
    assert compared > 80 and thresholds > 5


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
            milp.maximize(model, objective, -12, 12)
        else:
            milp.solve_feasibility(model)
    assert seen["warm", True] > 100 and seen["warm", False] > 50
    assert seen["optimum compared"] > 50 and seen["threshold moved"] > 10


def test_moving_right_hand_sides_is_exact_in_any_row_form(monkeypatch):
    """Moving a tableau from totals ``old`` to ``new`` adds, to every row,
    (new - old) / dens[r] times its entry in slack column r, exactly: also
    where a row's denominator does not take that term, so the row is
    rescaled, and then reduced once past ``REDUCE_ABOVE`` (lowered here;
    rows carry common factors for it to find)."""
    monkeypatch.setattr(_kernel, "REDUCE_ABOVE", 16)
    rng = random.Random(0xB63)
    rescaled = reduced = 0
    for _ in range(300):
        ncols, m = rng.randint(1, 3), rng.randint(1, 4)
        width = ncols + m
        tableau = _scaled([[rng.randint(-9, 9) for _ in range(width + 1)]
                           + [rng.randint(1, 12)] for _ in range(m + 1)],
                          [rng.choice((1, 2, 6)) for _ in range(m + 1)])
        dens = [rng.randint(1, 12) for _ in range(m)]
        old = [rng.randint(-20, 20) for _ in range(m)]
        new = [x + rng.choice((0, rng.randint(-5, 5))) for x in old]
        expected = _fraction_rows(tableau, width)
        for row in expected:
            row[width] += sum(F(b - a, d) * row[ncols + r]
                              for r, (a, b, d) in enumerate(zip(old, new, dens)))
        before = [row[-1] for row in tableau]
        lp_module._move_rhs(tableau, width, ncols, dens, old, new)
        assert _fraction_rows(tableau, width) == expected
        for row, den in zip(tableau, before):
            if row[-1] != den:
                rescaled += 1
                reduced += row[-1] % den != 0  # only a reduction does that
    assert rescaled > 100 and reduced > 10


def test_search_restarts_cold_after_an_unbounded_phase_2(monkeypatch):
    """A node LP whose phase 2 is unbounded leaves no live tableau: the
    search's next LP, the feasibility solve at t_hi, starts cold, and the
    nodes after it re-use that LP's tableau with an all-zero objective row.
    The answers still match enumeration."""
    real_lp = branch_bound.solve_lp_feasibility
    trace = []

    def lp(rows, lo, up, stats=None, objective=None, live=None):
        warm = live.tableau is not None
        if warm and objective is None:
            assert not any(live.tableau[-1][:-1])
        result = real_lp(rows, lo, up, stats, objective=objective, live=live)
        trace.append((warm, objective is None,
                      result[0] and result[1] is None))
        return result

    monkeypatch.setattr(branch_bound, "solve_lp_feasibility", lp)
    rng = random.Random(0xB62)
    restarts = warm_after = 0
    for _ in range(200):
        model, objective, optimum, _ = _random_milp(rng, unbounded=True)
        lo = rng.randint(-6, 0)
        hi = lo + rng.randint(0, 8)
        trace.clear()
        result = milp.maximize(model, objective, lo, hi)
        if optimum is None:
            assert not result.feasible
            continue
        assert result.best == hi
        assert model.check_assignment(result.assignment) == []
        for k, (warm, _, unbounded) in enumerate(trace):
            assert not (warm and unbounded)
            if unbounded:
                restarts += 1
                after = trace[k + 1:]
                assert after and not after[0][0] and after[0][1]
                assert all(feasibility for _, feasibility, _ in after)
                warm_after += any(warm for warm, _, _ in after)
    assert restarts > 20 and warm_after > 5


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
        stats = milp.maximize(lowered, coeffs, *objective_bracket(norm, coeffs)).stats
        for tableau, _, nrows, ncols, _, _ in calls:
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
    """Log (lowers, uppers, feasible, point) of every LP a search solves;
    ``corrupt`` may rewrite the point of each rounding LP (lowers ==
    uppers) before the search sees it."""
    calls = []
    real_lp = branch_bound.solve_lp_feasibility

    def lp(rows, lo, up, stats=None, **kwargs):
        feasible, point, pivots = real_lp(rows, lo, up, stats, **kwargs)
        if corrupt is not None and lo == up and feasible:
            point = corrupt(list(point))
        calls.append((list(lo), list(up), feasible, point))
        return feasible, point, pivots

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
    (root_lo, root_up, _, root), (ceil_lo, ceil_up, ceil_ok, _), \
        (floor_lo, floor_up, floor_ok, rounded) = calls
    assert root_lo != root_up
    ints = root[:2]  # x and y, the integer variables, come first
    assert any(type(x) is F for x in ints)
    assert ceil_lo == ceil_up == [math.ceil(x) for x in ints] and not ceil_ok
    assert floor_lo == floor_up == [math.floor(x) for x in ints] and floor_ok
    assert rounded[:2] == [2, 6]
    assert result.assignment[0] == 2 and result.assignment[1] == 6
    assert stats.rounding_lps == 2


def test_rounding_runs_at_most_twice_per_search(monkeypatch):
    """Rounding LPs are the LPs of a search that solve no node: at most two
    per optimization, none in a feasibility search, and never counted as
    nodes, so the node limit still bounds the nodes alone."""
    calls = _record_lps(monkeypatch)
    rng = random.Random(0xB64)
    rounded = collections.Counter()
    for _ in range(150):
        model, objective, _, _ = _rational_milp(rng)
        del calls[:]
        stats = milp.maximize(model, objective, -12, 12).stats
        assert stats.rounding_lps <= 2
        assert stats.lp_calls == len(calls) == stats.nodes + stats.rounding_lps
        assert sum(lo == up for lo, up, _, _ in calls) >= stats.rounding_lps
        rounded[stats.rounding_lps] += 1
        assert milp.solve_feasibility(model).stats.rounding_lps == 0
    assert rounded[1] > 10 and rounded[2] > 10


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
    """The same two heavy covers take the nodes and pivots they took when
    every integer bound was a tableau row, but with the bounds as column
    bounds their largest tableaus keep only model rows: 74 of 193 at
    (8, 160) and 28 of 316 at (12, 300)."""
    for m, n, nodes, pivots, rows in ((8, 160, 115, 1049, 80),
                                      (12, 300, 122, 875, 30)):
        instance = _ladder_cover(random.Random(1000 * m + n), m, n, "umm")
        stats = covering.solve_umm(instance, minimize_cost=True,
                                   node_limit=20000).stats
        assert (stats.nodes, stats.pivots) == (nodes, pivots)
        assert stats.max_tableau[0] <= rows

