"""Exact LP feasibility, branch and bound, and threshold optimization."""

import math
import random
from fractions import Fraction

import pytest

from generators import grid_best, grid_feasible, random_fraction, random_grid_model
from pwlmip import _kernel, milp
from pwlmip._kernel import phase1 as integer_phase1
from pwlmip.emip import VarKind, normalize
from pwlmip.milp.branch_bound import resolve_node_limit
from pwlmip.milp.lp import solve_lp_feasibility
from pwlmip.milp.model import MilpModel, MilpVariable
from pwlmip.reduction import lower
from reference_kernel import phase1 as reference_phase1

F = Fraction


def _mk(variables, rows):
    return MilpModel(
        tuple(MilpVariable(*v) for v in variables),
        tuple((tuple((i, F(c)) for i, c in coeffs), F(rhs))
              for coeffs, rhs in rows),
    )


# ---------------------------------------------------------------------------
# LP layer
# ---------------------------------------------------------------------------


def test_lp_feasibility_basic():
    rows = [(((0, F(1)),), F(2)), (((0, F(-1)),), F(-1))]  # 1 <= x <= 2
    ok, point, pivots = solve_lp_feasibility(rows, [F(0)], [F(10)])
    assert ok and 1 <= point[0] <= 2
    ok, point, _ = solve_lp_feasibility(
        [(((0, F(-1)),), F(-11))], [F(0)], [F(10)]
    )
    assert not ok


def test_lp_handles_free_variables():
    # x free, x <= -3 and -x <= -(-5) i.e. x >= -5
    rows = [(((0, F(1)),), F(-3)), (((0, F(-1)),), F(5))]
    ok, point, _ = solve_lp_feasibility(rows, [None], [None])
    assert ok and -5 <= point[0] <= -3


def test_lp_negative_rhs_exercises_artificials():
    # x + y >= 4 written as -x - y <= -4, within [0, 3] each
    rows = [(((0, F(-1)), (1, F(-1))), F(-4))]
    ok, point, _ = solve_lp_feasibility(rows, [F(0), F(0)], [F(3), F(3)])
    assert ok and point[0] + point[1] >= 4
    rows = [(((0, F(-1)), (1, F(-1))), F(-7))]
    ok, _, _ = solve_lp_feasibility(rows, [F(0), F(0)], [F(3), F(3)])
    assert not ok


def test_lp_exact_rational_vertex():
    # 3x = 1 has the exact solution 1/3
    rows = [(((0, F(3)),), F(1)), (((0, F(-3)),), F(-1))]
    ok, point, _ = solve_lp_feasibility(rows, [F(0)], [F(1)])
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
    assert result.status == "infeasible"
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


def test_node_limit_environment_variable(monkeypatch):
    monkeypatch.delenv("PWLMIP_NODE_LIMIT", raising=False)
    assert resolve_node_limit() == milp.DEFAULT_NODE_LIMIT
    monkeypatch.setenv("PWLMIP_NODE_LIMIT", "17")
    assert resolve_node_limit() == 17
    assert resolve_node_limit(5) == 5  # explicit argument wins
    for bad in (0, -3):
        with pytest.raises(ValueError, match="positive"):
            resolve_node_limit(bad)
    monkeypatch.setenv("PWLMIP_NODE_LIMIT", "zero")
    with pytest.raises(ValueError, match="integer"):
        resolve_node_limit()
    monkeypatch.setenv("PWLMIP_NODE_LIMIT", "-3")
    with pytest.raises(ValueError, match="positive"):
        resolve_node_limit()


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


def _assert_agrees_with_reference(tableau, basis, nrows, ncols):
    """Pivot an integer tableau in place and its Fractions by the reference.

    Returns the pivot count and the phase-1 optimum.
    """
    expected = _fraction_rows(tableau, ncols)
    expected_basis = list(basis)
    expected_pivots = reference_phase1(expected, expected_basis, nrows, ncols)
    pivots = integer_phase1(tableau, basis, nrows, ncols)
    assert pivots == expected_pivots
    assert basis == expected_basis
    # every entry, so also every vertex value and the phase-1 optimum
    assert _fraction_rows(tableau, ncols) == expected
    return pivots, -expected[nrows][ncols]


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


def test_integer_kernel_matches_reference_on_lowered_models(monkeypatch):
    pivots = []

    def checked(tableau, basis, nrows, ncols):
        count, _ = _assert_agrees_with_reference(tableau, basis, nrows, ncols)
        pivots.append(count)
        return count

    monkeypatch.setattr(_kernel, "phase1", checked)
    rng = random.Random(0xB53)
    for _ in range(12):
        lowered, _ = lower(normalize(random_grid_model(rng)))
        milp.solve_feasibility(lowered)
    assert sum(pivots) > 0


def test_lp_rational_rows_and_bounds(monkeypatch):
    built = []

    def checked(tableau, basis, nrows, ncols):
        built.append((_fraction_rows(tableau, ncols), list(basis)))
        return _assert_agrees_with_reference(tableau, basis, nrows, ncols)[0]

    monkeypatch.setattr(_kernel, "phase1", checked)
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
        ok, point, _ = solve_lp_feasibility(rows, lowers, uppers)
        verdicts.add(ok)
        if orthant and built:
            dense = [([c for _, c in coeffs], rhs) for coeffs, rhs in rows]
            assert built[0] == _phase1_tableau(dense, n)[:2]
            compared += 1
        if ok:
            for coeffs, rhs in rows:
                assert sum(c * point[i] for i, c in coeffs) <= rhs
            for x, lo, up in zip(point, lowers, uppers):
                assert lo is None or x >= lo
                assert up is None or x <= up
    assert verdicts == {True, False}
    assert compared > 10


def test_check_assignment_reports_violations():
    model = _mk([("x", VarKind.INTEGER, F(0), F(2))], [([(0, 1)], 1)])
    assert model.check_assignment({0: F(1)}) == []
    assert any("row" in p for p in model.check_assignment({0: F(2)}))
    assert any("integral" in p or "integer" in p
               for p in model.check_assignment({0: F(1, 2)}))
    assert model.check_assignment({0: F(-1)}) != []
