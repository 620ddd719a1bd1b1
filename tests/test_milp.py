"""Exact LP feasibility, branch and bound, and threshold optimization."""

import math
import random
from fractions import Fraction

import pytest

from generators import grid_best, grid_feasible, random_fraction, random_grid_model
from pwlmip import _kernel, milp
from pwlmip._kernel import phase1 as integer_phase1
from pwlmip.emip import VarKind, normalize
from pwlmip.milp import branch_bound
from pwlmip.milp.branch_bound import resolve_node_limit
from pwlmip.milp.lp import CompiledRows, solve_lp_feasibility
from pwlmip.milp.model import MilpModel, MilpVariable
from pwlmip.pipeline import maximize_emip, objective_bracket, solve_emip
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


def test_maximize_node_limit_bounds_all_probes(monkeypatch):
    model = _mk(
        [("x", VarKind.INTEGER, F(0), F(6)), ("y", VarKind.INTEGER, F(0), F(6))],
        [([(0, 2), (1, 2)], 9), ([(0, 3), (1, -1)], 4)],
    )
    probe_nodes = []
    real_solve = branch_bound.solve_feasibility

    def counted(sub, node_limit=None):
        result = real_solve(sub, node_limit)
        probe_nodes.append(result.stats.nodes)
        return result

    monkeypatch.setattr(branch_bound, "solve_feasibility", counted)
    full = milp.maximize(model, {0: F(1), 1: F(1)}, 0, 12)
    assert full.feasible and full.best == 4
    total = sum(probe_nodes)
    assert full.stats.nodes == total
    assert len(probe_nodes) > 2 and max(probe_nodes) < total
    # every probe fits a budget of max(probe_nodes), their sum does not
    with pytest.raises(milp.ResourceExhausted) as exc:
        milp.maximize(model, {0: F(1), 1: F(1)}, 0, 12,
                      node_limit=max(probe_nodes))
    assert exc.value.nodes == exc.value.limit == max(probe_nodes)
    again = milp.maximize(model, {0: F(1), 1: F(1)}, 0, 12, node_limit=total)
    assert again.best == 4 and again.stats == full.stats


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


def _per_node_tableau(rows, lowers, uppers):
    """The phase-1 tableau built straight from Fraction rows and bounds.

    The direct construction that compiled rows replace: shift or split every
    column, scale each row (bound rows included) by the lcm of its
    denominators, then add slacks, artificials and the priced-out objective.
    Returns (tableau, basis, nrows, ncols), or None when the all-slack basis
    is already feasible and no kernel call is needed.
    """
    col_of, ncols = [], 0
    for lo in lowers:
        col_of.append((ncols,) if lo is not None else (ncols, ncols + 1))
        ncols += len(col_of[-1])
    bound_rows = [(((i, F(1)),), up) for i, up in enumerate(uppers)
                  if up is not None]
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
    built = []
    real_phase1 = _kernel.phase1

    def record(tableau, basis, nrows, ncols):
        built.append(([list(row) for row in tableau], list(basis), nrows, ncols))
        return real_phase1(tableau, basis, nrows, ncols)

    monkeypatch.setattr(_kernel, "phase1", record)
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
        compiled = CompiledRows(rows, lowers, uppers, moving)
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
            expected = _per_node_tableau(rows, lo, up)
            built.clear()
            result = solve_lp_feasibility(compiled, [lo[i] for i in moving],
                                          [up[i] for i in moving])
            assert built == ([] if expected is None else [expected])
            assert result == solve_lp_feasibility(rows, lo, up)
            compared += expected is not None
            rational_lowers += rational and expected is not None
            moved += expected is not None and any(lo[i] for i in moving)
    assert compared > 150 and rational_lowers > 100 and moved > 100


def test_compiled_rows_reject_an_unbounded_moving_variable():
    rows = [(((0, F(1)), (1, F(1))), F(3))]
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


def test_assignments_stay_fractions():
    model = _mk([("x", VarKind.INTEGER, F(0), F(4)),
                 ("y", VarKind.CONTINUOUS, F(0), None)],
                [([(0, 3), (1, 2)], 7)])
    answers = [milp.solve_feasibility(model).assignment,
               milp.maximize(model, {0: F(1)}, 0, 4).assignment]
    emip = random_grid_model(random.Random(0xB57), with_objective=True)
    answers += [solve_emip(emip).assignment, maximize_emip(emip).assignment]
    assert all(a is not None for a in answers)
    assert all(type(v) is Fraction for a in answers for v in a.values())


def test_maximize_compiles_once_and_builds_every_probe_tableau(monkeypatch):
    """One compile per ``maximize``; every probe's tableaux are direct builds.

    Rows, objective coefficients and continuous bounds are rational, so the
    threshold row and the folded shifts carry denominators.
    """
    compiles = []
    built = []
    probes = []

    class Counted(CompiledRows):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            compiles.append(1)
            super().__init__(*args, **kwargs)

    real_phase1 = _kernel.phase1
    real_lp = branch_bound.solve_lp_feasibility
    real_solve = branch_bound.solve_feasibility

    def record(tableau, basis, nrows, ncols):
        built.append(([list(row) for row in tableau], list(basis), nrows, ncols))
        return real_phase1(tableau, basis, nrows, ncols)

    def lp(rows, lo, up, stats=None):
        built.clear()
        result = real_lp(rows, lo, up, stats)
        probes[-1][1].append((list(lo), list(up), list(built)))
        return result

    def solve(sub, node_limit=None):
        coeffs, rhs, den = sub.rows[-1]
        probes.append((-F(rhs, den), []))
        return real_solve(sub, node_limit)

    monkeypatch.setattr(branch_bound, "CompiledRows", Counted)
    monkeypatch.setattr(_kernel, "phase1", record)
    monkeypatch.setattr(branch_bound, "solve_lp_feasibility", lp)
    monkeypatch.setattr(branch_bound, "solve_feasibility", solve)
    rng = random.Random(0xB58)
    compared = 0
    for _ in range(25):
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
            rows,
        )
        objective = {i: random_fraction(rng, -2, 2) for i in range(n)
                     if rng.random() < 0.7}
        compiles.clear()
        probes.clear()
        milp.maximize(model, objective, -12, 12)
        assert len(compiles) == 1
        int_idx = model.integer_indices()
        for t, nodes in probes:
            threshold = (tuple((i, -c) for i, c in objective.items()), -t)
            for lo, up, tableaux in nodes:
                lowers = [F(b[0]) for b in bounds]
                uppers = [F(b[1]) for b in bounds]
                for j, i in enumerate(int_idx):
                    lowers[i], uppers[i] = F(lo[j]), F(up[j])
                expected = _per_node_tableau(rows + [threshold], lowers, uppers)
                assert tableaux == ([] if expected is None else [expected])
                compared += expected is not None
    assert compared > 100


def test_stats_report_the_largest_tableau_the_kernel_received(monkeypatch):
    shapes = []
    pivots = []
    real_phase1 = _kernel.phase1

    def record(tableau, basis, nrows, ncols):
        assert len(tableau) == nrows + 1
        assert all(len(row) == ncols + 2 for row in tableau)
        shapes.append((nrows, ncols))
        pivots.append(real_phase1(tableau, basis, nrows, ncols))
        return pivots[-1]

    monkeypatch.setattr(_kernel, "phase1", record)
    rng = random.Random(0xB59)
    kinds = set()
    for _ in range(30):
        model = random_grid_model(rng, with_objective=True)
        norm = normalize(model)
        lowered, _ = lower(norm)
        coeffs = dict(norm.objective.coeffs)
        shapes.clear()
        pivots.clear()
        stats = milp.maximize(lowered, coeffs, *objective_bracket(norm, coeffs)).stats
        assert stats.pivots == sum(pivots)
        assert stats.max_tableau == max(shapes, key=lambda s: (s[0] * s[1], s[0]),
                                        default=(0, 0))
        kinds.add((len(set(shapes)) > 1, stats.max_depth > 0))
    assert (True, True) in kinds  # shapes vary and the search branches


def test_stats_pin_depth_and_tableau_on_a_branching_search():
    # 2x + 2y = 7 over integers: every LP is 4 rows by 7 columns; proving
    # it empty goes 6 branchings deep
    model = _mk(
        [("x", VarKind.INTEGER, F(0), F(3)), ("y", VarKind.INTEGER, F(0), F(3))],
        [([(0, 2), (1, 2)], 7), ([(0, -2), (1, -2)], -7)],
    )
    stats = milp.solve_feasibility(model).stats
    assert (stats.nodes, stats.max_depth, stats.max_tableau) == (13, 6, (4, 7))
    total = milp.SolveStats()
    total.absorb(stats)
    total.absorb(milp.SolveStats(max_depth=2, max_tableau=(5, 5)))
    assert (total.nodes, total.max_depth, total.max_tableau) == (13, 6, (4, 7))
    total.absorb(milp.SolveStats(max_depth=9, max_tableau=(3, 10)))
    assert (total.max_depth, total.max_tableau) == (9, (3, 10))
