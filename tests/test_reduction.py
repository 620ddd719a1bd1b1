"""Lowering to linear rows: structure, witnesses, and exact equivalence."""

import random
from fractions import Fraction

import pytest

from generators import grid_feasible, iter_grid, random_grid_model, witness_embed
from pwlmip import milp, pipeline
from pwlmip.covering import CoverInstance, Types, solve_umm
from pwlmip.emip import (
    EmipConstraint,
    EmipModel,
    Variable,
    VarKind,
    normalize,
)
from pwlmip.milp.lp import solve_lp_feasibility
from pwlmip.milp.model import SolverInternalError, integer_row
from pwlmip.oracle import brute_cover
from pwlmip.pwl import PwlFunction, Shape, prefix_sum_term
from pwlmip.reduction import lower, witness_lift

F = Fraction


def _knapsack_model():
    """f(x) <= 9 with f convex, one breakpoint: the smallest interesting case."""
    fn = PwlFunction(Shape.CONVEX, 0, (2,), (1, 3))
    return EmipModel(
        (Variable("x", VarKind.INTEGER, 0, 6),),
        (EmipConstraint(lhs={0: fn}, rhs={}, b=9),),
    )


def test_lowering_structure_of_one_convex_term():
    lowered, lmap = lower(_knapsack_model())
    names = [v.name for v in lowered.variables]
    assert names == ["x", "z_c0_x_1"]
    # z is bounded below by 0 and gets no upper bound, because its rows
    # already push it down to max(0, x - 2)
    assert (lowered.variables[1].lower, lowered.variables[1].upper) == (0, None)
    # z >= x - 2, then the budget row x + 2z <= 9, which reads f(x) through
    # x and z since no other row uses f; z >= 0 is a bound, not a row
    assert lowered.rows == ((((0, 1), (1, -1)), 2), (((0, 1), (1, 2)), 9))
    # only the original variable is integer
    assert lowered.integer_indices() == [0]
    ((key, term),) = lmap.terms
    assert key == (0, "lhs", 0)
    assert term.bound_var is None and term.aux_vars == (1,)


def test_a_block_two_rows_share_keeps_its_bound_column():
    fn = PwlFunction(Shape.CONVEX, 0, (2,), (1, 3))
    model = EmipModel(
        (Variable("x", VarKind.INTEGER, 0, 6),),
        (EmipConstraint(lhs={0: fn}, rhs={}, b=9),
         EmipConstraint(lhs={0: fn}, rhs={}, b=7)),
    )
    lowered, lmap = lower(model)
    assert [v.name for v in lowered.variables] == ["x", "w_c0_x", "z_c0_x_1"]
    # w is bounded below by the minimum of f over [0, 6]
    assert (lowered.variables[1].lower, lowered.variables[1].upper) == (0, None)
    # z >= x - 2, link x + 2z <= w, then w <= 9 and w <= 7
    assert lowered.rows == ((((0, 1), (2, -1)), 2),
                            (((0, 1), (1, -1), (2, 2)), 0),
                            (((1, 1),), 9), (((1, 1),), 7))
    (_, first), (_, second) = lmap.terms
    assert first is second
    assert first.bound_var == 1 and first.aux_vars == (2,)


def test_lowering_normalizes_the_model_as_written():
    fn = PwlFunction(Shape.CONVEX, 5, (2,), (1, 3))  # f(0) = 5 moves into b
    model = EmipModel(
        (Variable("x", VarKind.INTEGER, 0, 6), Variable("y", VarKind.INTEGER, 0, 6)),
        (EmipConstraint(lhs={0: fn, 1: 2}, rhs={}, b=9),),
    )
    lowered, lmap = lower(model)
    ((coeffs, b, row),) = lmap.forms
    (z,) = lmap.terms[0][1].aux_vars
    assert dict(coeffs) == {0: 1, z: 2, 1: 2} and b == 4  # f(x) + 2y <= 9 - 5
    assert row == len(lowered.rows) - 1
    assert lowered.rows[row] == (tuple(sorted(coeffs)), 4)

    rng = random.Random(0xD40)
    rewritten = solved = 0
    for _ in range(60):
        model = random_grid_model(rng)
        rewritten += normalize(model) != model
        lowered, lmap = lower(model)
        assert (lowered, lmap) == lower(normalize(model))
        result = milp.solve_feasibility(lowered)
        if result.feasible:
            witness_lift(model, result.assignment)  # raises on any lie
            solved += 1
    assert rewritten > 30 and solved > 10


def test_lowering_rejects_invalid_models():
    model = EmipModel((), (EmipConstraint(lhs={0: 1}, rhs={}),))
    with pytest.raises(ValueError, match="unknown variable"):
        lower(model)


def test_rows_have_integer_coefficients():
    fn = PwlFunction(Shape.CONVEX, 0, (F(1, 2),), (F(1, 3), F(5, 2)))
    model = EmipModel(
        (Variable("x", VarKind.INTEGER, 0, 4),),
        (EmipConstraint(lhs={0: fn}, rhs={}, b=F(7, 6)),),
    )
    lowered, _ = lower(model)
    for coeffs, rhs in lowered.rows:
        assert type(rhs) is int
        assert all(type(c) is int for _, c in coeffs)


def test_witness_embed_satisfies_every_row():
    model = _knapsack_model()
    lowered, lmap = lower(model)
    ((coeffs, _, _),) = lmap.forms
    for x in range(0, 7):
        point = witness_embed(model, lmap, {0: F(x)})
        assert point[1] == max(0, x - 2)                            # z = (x-2)+
        value = sum(c * point[i] for i, c in coeffs)
        assert value == model.constraints[0].lhs[0][1].eval(x)      # f(x)
        if model.constraints[0].holds({0: F(x)}):
            assert lowered.check_assignment(point) == []


def test_witness_lift_verifies_exactly():
    model = _knapsack_model()
    lowered, _ = lower(model)
    result = milp.solve_feasibility(lowered)
    assert result.feasible
    point = witness_lift(model, result.assignment)
    assert model.constraints[0].holds(point)
    # a corrupted assignment is rejected, not passed through
    with pytest.raises(SolverInternalError, match="constraint"):
        witness_lift(model, {0: F(6), 1: F(0), 2: F(0)})
    with pytest.raises(SolverInternalError, match="below lower bound"):
        witness_lift(model, {0: F(-1)})
    with pytest.raises(SolverInternalError, match="not integral"):
        witness_lift(model, {0: F(1, 2)})


def test_concave_side_lowering_keeps_gains_honest():
    # coverage-style row: 0 <= g(x) - 3 with g concave
    g = PwlFunction(Shape.CONCAVE, 0, (1, 2), (2, 1, 0))
    model = EmipModel(
        (Variable("x", VarKind.INTEGER, 0, 5),),
        (EmipConstraint(lhs={}, rhs={0: g}, b=-3),),
    )
    lowered, _ = lower(model)
    result = milp.solve_feasibility(lowered)
    assert result.feasible
    x = result.assignment[0]
    assert g.eval(x) >= 3  # g(x) truly reaches the requirement
    assert grid_feasible(model)[0] is True


def test_lowering_passes_the_source_variables_through():
    rng = random.Random(0xD40)
    for _ in range(10):
        model = random_grid_model(rng)
        lowered, _ = lower(model)
        n = len(model.variables)
        assert all(a is b for a, b in zip(lowered.variables[:n], model.variables,
                                          strict=True))


def test_integer_dimension_unchanged():
    rng = random.Random(0xD41)
    for _ in range(25):
        model = normalize(random_grid_model(rng))
        lowered, _ = lower(model)
        assert lowered.integer_indices() == list(range(len(model.variables)))
        for v in lowered.variables[len(model.variables):]:
            assert v.kind is VarKind.CONTINUOUS


def test_feasibility_equivalence_small_batch():
    rng = random.Random(0xD42)
    for _ in range(80):
        model = random_grid_model(rng)
        norm = normalize(model)
        lowered, _ = lower(norm)
        expected, _ = grid_feasible(model)
        result = milp.solve_feasibility(lowered)
        assert result.feasible == expected
        if result.feasible:
            witness_lift(norm, result.assignment)  # raises on any lie


def test_embed_of_every_feasible_grid_point_is_feasible():
    rng = random.Random(0xD43)
    for _ in range(25):
        norm = normalize(random_grid_model(rng, max_vars=2, max_cons=2))
        lowered, lmap = lower(norm)
        for point in iter_grid(norm):
            if all(c.holds(point) for c in norm.constraints):
                full = witness_embed(norm, lmap, point)
                assert lowered.check_assignment(full) == []


def test_lowered_rows_carry_no_zero_coefficient():
    # a zero first slope (a free first item) must not become a 0*x term
    fn = prefix_sum_term([0, 3, 5])
    assert fn.slopes[0] == 0 and not fn.is_linear
    flat_then_falling = PwlFunction(Shape.CONCAVE, 0, (1,), (0, -2))
    models = [EmipModel(
        (Variable("x", VarKind.INTEGER, 0, 3),),
        (EmipConstraint(lhs={0: fn}, rhs={}, b=4),
         EmipConstraint(lhs={}, rhs={0: flat_then_falling}, b=0)),
    )]
    rng = random.Random(0x1F1)
    models += [normalize(random_grid_model(rng)) for _ in range(60)]
    for model in models:
        lowered, _ = lower(model)
        for coeffs, _ in lowered.rows:
            assert all(c != 0 for _, c in coeffs), coeffs


def _blocks(lmap):
    """The distinct auxiliary blocks of a lowering, in order of creation."""
    seen = {}
    for _, term in lmap.terms:
        seen.setdefault(term.aux_vars, term)
    return [seen[k] for k in sorted(seen)]


def test_dropped_rows_and_bounds_are_redundant_in_the_lp():
    """Adding back ``-z <= 0`` rows and auxiliary upper bounds changes no LP.

    The bounds are the ones an exact-range lowering would give: f's maximum
    over the variable's box for a shared block's w (u) and
    max(0, upper - rho) for z (y).  The LP verdict must agree on every
    integer sub-box of the source variables, which is how branch and bound
    sees the model.
    """
    rng = random.Random(0xD44)
    verdicts = set()
    boxes = 0
    for _ in range(120):
        norm = normalize(random_grid_model(rng))
        lowered, lmap = lower(norm)
        blocks = _blocks(lmap)
        if not blocks:
            continue
        extra_rows = []
        full_uppers = [v.upper for v in lowered.variables]
        for term in blocks:
            src = norm.variables[term.var]
            if term.bound_var is not None:
                full_uppers[term.bound_var] = term.fn.range_on(
                    src.lower, src.upper)[1]
            for aux, rho in zip(term.aux_vars, term.fn.breakpoints):
                extra_rows.append((((aux, -1),), 0))
                full_uppers[aux] = max(F(0), src.upper - rho)
        full_rows = lowered.rows + tuple(extra_rows)
        for _ in range(6):
            lowers = [v.lower for v in lowered.variables]
            uppers = [v.upper for v in lowered.variables]
            sub_uppers = list(full_uppers)
            for i, v in enumerate(norm.variables):
                # half the boxes are single points, where the LP must read
                # each function at an integer exactly
                lo = rng.randint(int(v.lower), int(v.upper))
                up = lo if rng.random() < 0.5 else rng.randint(lo, int(v.upper))
                lowers[i] = F(lo)
                uppers[i] = sub_uppers[i] = F(up)
            lean, _ = solve_lp_feasibility(lowered.rows, lowers, uppers)
            full, _ = solve_lp_feasibility(full_rows, lowers, sub_uppers)
            assert lean == full
            verdicts.add(lean)
            boxes += 1
    assert verdicts == {True, False}
    assert boxes > 300


def test_inlined_blocks_read_as_their_bound_columns_in_the_lp():
    """Giving each inlined block back its w (u) column changes no LP.

    A block that one row uses is inlined there: the row holds
    ``sign * d_0`` on x and ``sign * (d_l - d_{l-1})`` on each z_l.  Here
    each such block gets back a column w with f's minimum over the
    variable's box as its lower bound and its link row, and each row is
    written from the source row again, with w in place of those
    coefficients.  On integer sub-boxes of the source variables the two
    models must give the same LP verdict, and the same LP minimum of every
    row's lowered form, the objective :func:`pwlmip.pipeline.minimize_budget`
    minimizes.
    """
    rng = random.Random(0xD45)
    verdicts = set()
    inlined = boxes = 0
    for _ in range(200):
        norm = normalize(random_grid_model(rng))
        lowered, lmap = lower(norm)
        n = len(lowered.variables)
        lowers = [v.lower for v in lowered.variables]
        uppers = [v.upper for v in lowered.variables]
        columns, links = {}, []  # the bound column of each use; link rows
        for key, term in lmap.terms:
            if term.bound_var is not None:
                columns[key] = term.bound_var
                continue
            (_, side, idx), fn = key, term.fn
            sign = 1 if side == "lhs" else -1
            columns[key] = w = n + len(links)
            link = {idx: sign * fn.slopes[0], w: -sign}
            for aux, lo, hi in zip(term.aux_vars, fn.slopes, fn.slopes[1:]):
                link[aux] = sign * (hi - lo)
            links.append(link)
            src = norm.variables[idx]
            lowers.append(fn.range_on(src.lower, src.upper)[0])
            uppers.append(None)
        # each row's form, written from the source row: w (u) per term
        forms = []
        for j, cons in enumerate(norm.constraints):
            form = {}
            for side_name, side, sign in (("lhs", cons.lhs, 1),
                                          ("rhs", cons.rhs, -1)):
                for idx, term in side:
                    i, c = (columns[j, side_name, idx], sign) if isinstance(
                        term, PwlFunction) else (idx, sign * term)
                    form[i] = form.get(i, 0) + c
            forms.append(form)
        if not links:
            continue
        inlined += len(links)
        width = len(lowers)

        def row(coeffs, rhs):
            return integer_row(((i, c) for i, c in coeffs if c != 0), rhs,
                               width)

        lean_forms = [row(coeffs, b) for coeffs, b, _ in lmap.forms]
        full_forms = [row(form.items(), b)
                      for form, (_, b, _) in zip(forms, lmap.forms)]
        # every row but the lowered forms, then the links and the forms
        at = {k for _, _, k in lmap.forms}
        base = tuple(r for k, r in enumerate(lowered.rows) if k not in at)
        full_rows = base + tuple(row(link.items(), 0) for link in links) + tuple(
            full_forms)
        for _ in range(6):
            box_lo, box_up = lowers[:], uppers[:]
            for i, v in enumerate(norm.variables):
                lo = rng.randint(int(v.lower), int(v.upper))
                up = lo if rng.random() < 0.5 else rng.randint(lo, int(v.upper))
                box_lo[i], box_up[i] = lo, up
            for j, (coeffs, _, _) in enumerate(lmap.forms):
                lean_ok, lean = solve_lp_feasibility(
                    lowered.rows + (lean_forms[j],), box_lo[:n], box_up[:n],
                    objective=len(lowered.rows))
                full_ok, full = solve_lp_feasibility(
                    full_rows + (full_forms[j],), box_lo, box_up,
                    objective=len(full_rows))
                assert lean_ok == full_ok
                verdicts.add(lean_ok)
                if lean_ok:
                    assert (sum(c * lean[i] for i, c in coeffs)
                            == sum(c * full[i] for i, c in forms[j].items()))
            boxes += 1
    assert verdicts == {True, False}
    assert inlined > 100 and boxes > 500


def test_umm_family_yield_lowers_to_one_shared_block(monkeypatch):
    # family {0,1,2} has yields 3,2,1 and family {0,1} has 3,1: both concave
    # with breakpoints, each used in the rows of several elements
    inst = CoverInstance(
        3,
        [{0: 3, 1: 3, 2: 3}, {0: 2, 1: 2, 2: 2}, {0: 1, 1: 1, 2: 1},
         {0: 3, 1: 3}, {0: 1, 1: 1}, {2: 4}],
        [5, 6, 4],
        4,
    )
    captured = []
    real_lower = pipeline.lower

    def capture(model):
        out = real_lower(model)
        captured.append((model, out))
        return out

    monkeypatch.setattr(pipeline, "lower", capture)
    solution = solve_umm(inst, minimize_cost=True)
    assert solution.feasible and solution.cost == brute_cover(inst).best_cost

    ((model, (lowered, lmap)),) = captured
    types = Types.of([inst.support(k) or None for k in range(inst.n_sets)],
                     lambda k: 0)
    uses = {}
    for (j, side, idx), term in lmap.terms:
        assert side == "rhs"
        uses.setdefault(idx, []).append((j, term))
    shared = 0
    for i, (support, members) in enumerate(zip(types.keys, types.members)):
        blocks = {id(term) for _, term in uses.get(i, ())}
        if len(members) == 1:
            assert not blocks  # one member: a linear yield, no auxiliaries
            continue
        supported = [e for e in support if inst.requirements[e] > 0]
        assert len(uses[i]) == len(supported) > 1
        assert len(blocks) == 1
        shared += 1
    assert shared == 2
    # one u plus one y per breakpoint for each block, nothing per use
    assert all(term.bound_var is not None for term in _blocks(lmap))
    aux = sum(1 + len(term.aux_vars) for term in _blocks(lmap))
    assert len(lowered.variables) == len(model.variables) + aux


# ---------------------------------------------------------------------------
# the scalar contract: ints when integral, Fractions otherwise
# ---------------------------------------------------------------------------


def test_integral_model_lowers_to_int_bounds_and_rows():
    fn = PwlFunction.from_json({"shape": "convex", "breakpoints": ["2"],
                                "slopes": ["1", "3"]})
    model = EmipModel(
        (Variable("x", VarKind.INTEGER, "0", F(6)),
         Variable("y", VarKind.CONTINUOUS, F(-2), "4")),
        (EmipConstraint(lhs={0: fn, 1: F(2)}, rhs={}, b=F(18, 2)),),
    )
    lowered, _ = lower(normalize(model))
    bounds = [b for v in lowered.variables for b in (v.lower, v.upper)
              if b is not None]
    assert bounds and all(type(b) is int for b in bounds)
    for coeffs, rhs in lowered.rows:
        assert type(rhs) is int
        assert all(type(c) is int for _, c in coeffs)


def test_non_integral_bounds_stay_fractions_in_the_lowering():
    half = PwlFunction(Shape.CONVEX, 0, (F(1, 2),), (1, 3))
    model = EmipModel(
        (Variable("x", VarKind.CONTINUOUS, 0, F(5, 2)),),
        (EmipConstraint(lhs={0: half}, rhs={}, b=9),),
    )
    lowered, _ = lower(model)
    assert lowered.variables[0].upper == F(5, 2)
    assert type(lowered.variables[0].upper) is F
    # z >= x - 1/2 is scaled to the integer row 2x - 2z <= 1
    assert lowered.rows[0] == (((0, 2), (1, -2)), 1)


def test_int_and_fraction_functions_share_one_lowered_block():
    ints = PwlFunction(Shape.CONCAVE, 0, (1, 2), (3, 2, 1))
    fractions = PwlFunction(Shape.CONCAVE, F(0), (F(1), F(2)),
                            (F(3), F(2), F(1)))
    model = EmipModel(
        (Variable("z", VarKind.INTEGER, 0, 3),),
        (EmipConstraint(lhs={}, rhs={0: ints}, b=-4),
         EmipConstraint(lhs={}, rhs={0: fractions}, b=-5)),
    )
    lowered, lmap = lower(model)
    (_, first), (_, second) = lmap.terms
    assert first is second
    assert [v.name for v in lowered.variables] == ["z", "u_c0_z", "y_c0_z_1",
                                                   "y_c0_z_2"]
