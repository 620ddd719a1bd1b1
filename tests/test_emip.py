"""Model structure, validation, normalization, and JSON round trips."""

import random
from fractions import Fraction

import pytest

from generators import (grid_feasible, iter_grid, random_fraction,
                        random_grid_model, satisfies)
from pwlmip.emip import (
    EmipConstraint,
    EmipModel,
    InvalidModelError,
    Objective,
    Variable,
    VarKind,
    normalize,
    term_value,
    validate,
)
from pwlmip.milp.lp import CompiledRows
from pwlmip.pipeline import maximize_emip
from pwlmip.pwl import PwlFunction, Shape
from pwlmip.reduction import lower

F = Fraction


def _var(name, lower=0, upper=6, kind=VarKind.INTEGER):
    return Variable(name, kind, lower, upper)


def is_normalized(model):
    """The postcondition of ``normalize``: a linear term is a nonzero
    coefficient, and a function has f(0) = 0 and a breakpoint, none below 0."""
    return all(fn.value_at_zero == 0 and fn.breakpoints
               and fn.breakpoints[0] >= 0
               if isinstance(fn, PwlFunction) else type(fn) in (int, F) and fn
               for cons in model.constraints
               for _, fn in cons.lhs + cons.rhs)


# ---------------------------------------------------------------------------
# construction and queries
# ---------------------------------------------------------------------------


def test_constraint_holds_boundary():
    fn = PwlFunction(Shape.CONVEX, 0, (2,), (1, 3))
    cons = EmipConstraint(lhs={0: fn}, rhs={1: 2}, b=1)
    assert cons.holds({0: F(2), 1: F(1)}) is True
    assert cons.holds({0: F(3), 1: F(1)}) is False
    assert cons.holds({0: F(3), 1: F(2)}) is True  # 5 <= 4 + 1


def test_duplicate_index_on_one_side_rejected():
    fn = PwlFunction(Shape.CONVEX, 0, (1,), (0, 1))
    for terms in ([(0, 1), (0, 2)], [(0, fn), (0, 2)],
                  [(0, fn), (0, PwlFunction(Shape.CONVEX, 0, (2,), (0, 1)))]):
        with pytest.raises(ValueError, match="twice"):
            EmipConstraint(lhs=terms, rhs={})


def test_raw_coefficients_become_linear_terms():
    cons = EmipConstraint(lhs={0: F(1, 2), 2: F(6, 3)}, rhs={1: -3})
    assert cons.lhs == ((0, F(1, 2)), (2, 2)) and cons.rhs == ((1, -3),)
    assert type(cons.lhs[1][1]) is int


def test_one_piece_functions_with_zero_constant_are_stored_as_slopes():
    cons = EmipConstraint(
        lhs={0: PwlFunction.linear(F(1, 2)),
             1: PwlFunction(Shape.CONVEX, 0, (1,), (2, 2))},  # merges to one piece
        rhs={2: PwlFunction.linear(-3, 0, Shape.CONCAVE)})
    assert cons == EmipConstraint(lhs={0: F(1, 2), 1: 2}, rhs={2: -3})
    assert type(cons.lhs[1][1]) is int and type(cons.rhs[0][1]) is int
    # a nonzero f(0) or a breakpoint keeps the function until normalize
    shifted = PwlFunction.linear(1, 2)
    kinked = PwlFunction(Shape.CONVEX, 0, (1,), (0, 1))
    cons = EmipConstraint(lhs={0: shifted, 1: kinked}, rhs={})
    assert cons.lhs == ((0, shifted), (1, kinked))


def test_a_coefficient_holds_where_its_one_piece_function_does():
    """A linear term as a coefficient c, and as the one-piece function with
    slope c and f(0) = v whose v is in b instead: the same points hold."""
    rng = random.Random(0xE30)
    for _ in range(40):
        c, d = (random_fraction(rng, -4, 4) for _ in range(2))
        v, w, b = (random_fraction(rng, -6, 6) for _ in range(3))
        as_functions = EmipConstraint(
            lhs={0: PwlFunction.linear(c, v)},
            rhs={1: PwlFunction.linear(d, w, Shape.CONCAVE)}, b=b)
        as_coefficients = EmipConstraint(lhs={0: c}, rhs={1: d}, b=b - v + w)
        for x in range(-3, 4):
            assert term_value(c, x) == PwlFunction.linear(c).eval(x)
            for y in range(-3, 4):
                point = {0: x, 1: F(y, 2)}
                assert as_functions.holds(point) == as_coefficients.holds(point)


def test_objective_validation():
    with pytest.raises(ValueError, match="sense"):
        Objective("maximize", {0: 1})
    obj = Objective("max", {1: F(1, 2), 0: -1})
    assert obj.coeffs == ((0, -1), (1, F(1, 2)))


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_shape_sides():
    convex = PwlFunction(Shape.CONVEX, 0, (1,), (0, 1))
    concave = PwlFunction(Shape.CONCAVE, 0, (1,), (1, 0))
    model = EmipModel(
        (_var("x"),),
        (EmipConstraint(lhs={0: concave}, rhs={}),),
    )
    assert any("convex or linear" in p for p in validate(model))
    model = EmipModel(
        (_var("x"),),
        (EmipConstraint(lhs={}, rhs={0: convex}),),
    )
    assert any("concave or linear" in p for p in validate(model))
    # linear terms are fine on either side, whatever their declared shape
    model = EmipModel(
        (_var("x"),),
        (EmipConstraint(lhs={0: -2}, rhs={0: 3}),),
    )
    assert validate(model) == []


def test_validate_transformed_variable_needs_nonnegative_lower():
    convex = PwlFunction(Shape.CONVEX, 0, (1,), (0, 1))
    model = EmipModel(
        (_var("x", lower=-1),),
        (EmipConstraint(lhs={0: convex}, rhs={}),),
    )
    assert any("nonnegative lower" in p for p in validate(model))
    # a linear-only variable may go negative
    model = EmipModel(
        (_var("x", lower=-1),),
        (EmipConstraint(lhs={0: 2}, rhs={}),),
    )
    assert validate(model) == []


def test_validate_rejects_a_missing_lower_bound():
    model = EmipModel((Variable("x", lower=None, upper=3),),
                      (EmipConstraint(lhs={0: 1}, rhs={}, b=2),))
    assert validate(model) == ["variable 'x': no lower bound"]
    with pytest.raises(InvalidModelError, match="no lower bound"):
        normalize(model)


def test_validate_misc_problems():
    model = EmipModel(
        (_var("x"), _var("x")),
        (EmipConstraint(lhs={5: 1}, rhs={}),),
        Objective("max", {9: 1}),
    )
    problems = validate(model)
    assert any("duplicate name" in p for p in problems)
    assert any("unknown variable index 5" in p for p in problems)
    assert any("objective: unknown variable index 9" in p for p in problems)
    model = EmipModel((_var("x", lower=4, upper=2),), ())
    assert any("empty bound range" in p for p in validate(model))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_folds_constants_into_b():
    # f(0) = 2 on the left and g(0) = -1 on the right fold into b:
    # b' = b - f(0) + g(0) = 0 - 2 + (-1) = -3
    model = EmipModel(
        (_var("x"), _var("y")),
        (EmipConstraint(lhs={0: PwlFunction.linear(1, 2)},
                        rhs={1: PwlFunction.linear(1, -1, Shape.CONCAVE)},
                        b=0),),
    )
    norm = normalize(model)
    assert norm.constraints[0].b == -3
    # and each one-piece function becomes its slope
    assert norm.constraints[0].lhs == ((0, 1),)
    assert norm.constraints[0].rhs == ((1, 1),)
    assert is_normalized(norm)


def test_normalize_rebuilds_only_terms_with_nonzero_value_at_zero():
    canonical = PwlFunction(Shape.CONVEX, 0, (1, 3), (1, 2, 4))
    shifted = PwlFunction(Shape.CONVEX, 3, (2,), (0, 1))
    linear = PwlFunction.linear(2, 0, Shape.CONCAVE)
    model = EmipModel(
        (_var("x"), _var("y"), _var("z")),
        (EmipConstraint(lhs={0: canonical, 1: shifted}, rhs={2: linear},
                        b=5),),
    )
    cons, = normalize(model).constraints
    (_, x_fn), (_, y_fn) = cons.lhs
    (_, z_fn), = cons.rhs
    # a one-piece function with f(0) = 0 was its slope from the start
    assert x_fn is canonical and z_fn == 2
    assert y_fn is not shifted
    assert y_fn == PwlFunction(Shape.CONVEX, 0, (2,), (0, 1))
    # b' = b - f_y(0) = 5 - 3
    assert cons.b == 2


def test_normalize_returns_canonical_constraints_as_they_are():
    canonical = PwlFunction(Shape.CONVEX, 0, (1, 3), (1, 2, 4))
    kept = EmipConstraint(lhs={0: canonical, 1: 3}, rhs={2: 1}, b=5)
    shifted = EmipConstraint(lhs={0: PwlFunction(Shape.CONVEX, 2, (1,), (0, 1))},
                             rhs={}, b=5)
    negative = EmipConstraint(
        lhs={}, rhs={1: PwlFunction(Shape.CONCAVE, 0, (-1, 2), (3, 2, 1))}, b=1)
    zero = EmipConstraint(lhs={0: 0, 1: 2}, rhs={}, b=4)
    also_kept = EmipConstraint(lhs={}, rhs={}, b=-1)
    model = EmipModel((_var("x"), _var("y"), _var("z")),
                      (kept, shifted, negative, zero, also_kept))
    out = normalize(model).constraints
    assert out[0] is kept and out[4] is also_kept
    assert all(new is not old for new, old in zip(out[1:4], model.constraints[1:4]))
    # f(0) = 2 folds into b and the function is rebuilt at f(0) = 0
    (_, fn), = out[1].lhs
    assert fn == PwlFunction(Shape.CONVEX, 0, (1,), (0, 1)) and out[1].b == 3
    # the breakpoint at -1 goes; g(0) = 0 already, so b stays
    (_, fn), = out[2].rhs
    assert fn == PwlFunction(Shape.CONCAVE, 0, (2,), (2, 1)) and out[2].b == 1
    # a zero coefficient is dropped, the other term kept as it was
    assert out[3].lhs == ((1, zero.lhs[1][1]),) and out[3].b == 4
    assert out[3].lhs[0][1] is zero.lhs[1][1]
    # a canonical model comes back with every constraint its own
    once = normalize(model)
    assert all(new is old for new, old in
               zip(normalize(once).constraints, once.constraints))


def test_normalize_validates_before_keeping_anything():
    concave_left = EmipConstraint(
        lhs={0: PwlFunction(Shape.CONCAVE, 0, (1,), (2, 1))}, rhs={})
    for model in (
        EmipModel((_var("x"),), (concave_left,)),
        EmipModel((_var("x"),), (EmipConstraint(lhs={3: 1}, rhs={}),)),
        EmipModel((_var("x", lower=4, upper=2),), (EmipConstraint(lhs={}, rhs={}),)),
    ):
        with pytest.raises(InvalidModelError):
            normalize(model)


def test_normalize_drops_negative_breakpoints():
    fn = PwlFunction(Shape.CONVEX, 7, (-1, 1), (-2, 0, 5))
    model = EmipModel(
        (_var("x"),),
        (EmipConstraint(lhs={0: fn}, rhs={}, b=20),),
    )
    norm = normalize(model)
    (idx, out), = norm.constraints[0].lhs
    assert out.breakpoints == (1,)
    assert out.value_at_zero == 0
    # constant folded: b' = 20 - f(0) = 13
    assert norm.constraints[0].b == 13
    # same feasible set on the nonnegative domain
    for x in range(0, 7):
        assert model.constraints[0].holds({0: F(x)}) == \
            norm.constraints[0].holds({0: F(x)})


def test_normalize_keeps_negative_linear_variable():
    model = EmipModel(
        (_var("x", lower=-3, upper=2),),
        (EmipConstraint(lhs={0: 2}, rhs={}, b=3),),
    )
    norm = normalize(model)
    assert norm.variables is model.variables
    assert norm.variables[0].lower == -3 and norm.variables[0].upper == 2
    assert norm.constraints[0].lhs == ((0, 2),)


def test_normalize_keeps_objective():
    model = EmipModel(
        (_var("x", lower=-3, upper=2),),
        (EmipConstraint(lhs={0: 1}, rhs={}, b=3),),
        Objective("max", {0: 5}),
    )
    norm = normalize(model)
    assert norm.variables is model.variables
    assert norm.objective is model.objective
    assert norm.objective.coeffs == ((0, 5),)


def test_normalize_keeps_negative_variables_on_both_sides():
    # x and y may go negative, one on each side of the same constraint
    model = EmipModel(
        (_var("x", lower=-2, upper=2), _var("y", lower=-2, upper=2)),
        (EmipConstraint(lhs={0: 3}, rhs={1: 1}, b=0),),
    )
    norm = normalize(model)
    assert is_normalized(norm)
    assert norm.variables is model.variables
    assert [v.lower for v in norm.variables] == [-2, -2]
    assert [v.upper for v in norm.variables] == [2, 2]
    for point in iter_grid(model):
        assert model.constraints[0].holds(point) == \
            norm.constraints[0].holds(point)


def test_negative_lower_bound_lowers_to_one_shifted_column():
    model = EmipModel(
        (_var("x", lower=-3, upper=2),),
        (EmipConstraint(lhs={0: 2}, rhs={}, b=-3),),
        Objective("max", {0: 1}),
    )
    lowered, _ = lower(normalize(model))
    assert [(v.name, v.lower, v.upper) for v in lowered.variables] == \
        [("x", -3, 2)]
    assert CompiledRows(lowered.rows, [F(-3)]).ncols == 1
    result = maximize_emip(model)
    assert result.best == -2
    assert result.assignment == {0: F(-2)}


def test_normalize_two_nonlinear_terms_one_variable_rejected():
    fn = PwlFunction(Shape.CONVEX, 0, (1,), (0, 1))
    model = EmipModel(
        (_var("x", lower=-1),),  # fine while x carries only linear terms
        (EmipConstraint(lhs={0: 2}, rhs={}),
         EmipConstraint(lhs={0: fn}, rhs={})),
    )
    # the transformed appearance forbids the negative lower bound instead
    with pytest.raises(InvalidModelError):
        normalize(model)


def test_normalize_idempotent():
    rng = random.Random(0xE31)
    for _ in range(40):
        model = random_grid_model(rng)
        once = normalize(model)
        assert is_normalized(once)
        assert normalize(once) == once


def test_normalize_preserves_grid_feasibility():
    rng = random.Random(0xE32)
    for _ in range(60):
        model = random_grid_model(rng)
        norm = normalize(model)
        assert norm.variables is model.variables
        for point in iter_grid(model):
            original = all(c.holds(point) for c in model.constraints)
            image = all(c.holds(point) for c in norm.constraints)
            assert original == image
            if original:
                assert satisfies(norm, point)
        assert grid_feasible(model)[0] == grid_feasible(norm)[0]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_round_trip():
    fn = PwlFunction(Shape.CONVEX, F(1, 2), (1,), (0, F(3, 2)))
    model = EmipModel(
        (_var("x"), Variable("c", VarKind.CONTINUOUS, 0, None)),
        (EmipConstraint(lhs={0: fn}, rhs={1: F(1, 3)}, b=F(7, 2)),),
        Objective("min", {0: 1, 1: F(-1, 2)}),
    )
    again = EmipModel.from_json(model.to_json())
    assert again == model


def test_json_one_piece_objects_read_as_coefficients_or_stay_functions():
    """An ``emip-v1`` one-piece function object with f(0) = 0 is read as its
    slope and written back as a string; one with f(0) != 0 stays an object
    until normalize folds f(0) into b."""
    def blob(at_zero):
        return {"format": "emip-v1", "variables": [{"name": "x", "upper": "3"}],
                "constraints": [{"lhs": {"x": {
                    "shape": "convex", "value_at_zero": at_zero,
                    "breakpoints": [], "slopes": ["1"]}}, "b": "5"}]}

    plain = EmipModel.from_json(blob("0"))
    assert plain.constraints[0].lhs == ((0, 1),)
    assert plain.to_json()["constraints"][0]["lhs"] == {"x": "1"}
    shifted = EmipModel.from_json(blob("2"))
    (_, fn), = shifted.constraints[0].lhs
    assert fn == PwlFunction.linear(1, 2)
    assert shifted.to_json()["constraints"][0]["lhs"]["x"] == fn.to_json()
    assert EmipModel.from_json(shifted.to_json()) == shifted
    norm = normalize(shifted).constraints[0]
    assert (norm.lhs, norm.b) == (((0, 1),), 3)


def test_json_round_trip_random():
    rng = random.Random(0xE33)
    for _ in range(30):
        model = random_grid_model(rng, with_objective=rng.random() < 0.5)
        assert EmipModel.from_json(model.to_json()) == model


def test_from_json_errors():
    with pytest.raises(ValueError, match="format"):
        EmipModel.from_json({"format": "nope", "variables": []})
    with pytest.raises(ValueError):
        EmipModel.from_json([1, 2])
    base = {
        "format": "emip-v1",
        "variables": [{"name": "x"}, {"name": "x"}],
        "constraints": [],
    }
    with pytest.raises(ValueError, match="duplicate"):
        EmipModel.from_json(base)
    base = {
        "format": "emip-v1",
        "variables": [{"name": "x"}],
        "constraints": [{"lhs": {"zz": "1"}, "rhs": {}, "b": "0"}],
    }
    with pytest.raises(ValueError, match="unknown variable"):
        EmipModel.from_json(base)


# ---------------------------------------------------------------------------
# the scalar contract: ints when integral, Fractions otherwise
# ---------------------------------------------------------------------------


def _contract_blob(**overrides):
    blob = {
        "format": "emip-v1",
        "variables": [
            {"name": "x", "kind": "integer", "lower": "0", "upper": 6},
            {"name": "y", "kind": "continuous", "lower": "-2", "upper": "8/2"},
        ],
        "constraints": [{
            "lhs": {"x": {"shape": "convex", "value_at_zero": "1",
                          "breakpoints": ["2"], "slopes": [1, "3"]},
                    "y": "2"},
            "rhs": {},
            "b": "9",
        }],
        "objective": {"sense": "max", "coeffs": {"x": "1", "y": 2}},
    }
    blob.update(overrides)
    return blob


def _model_scalars(model):
    out = []
    for v in model.variables:
        out += [v.lower] + ([] if v.upper is None else [v.upper])
    for cons in model.constraints:
        out.append(cons.b)
        for _, fn in cons.lhs + cons.rhs:
            if isinstance(fn, PwlFunction):
                out += [fn.value_at_zero, *fn.breakpoints, *fn.slopes]
            else:
                out.append(fn)
    out += [c for _, c in model.objective.coeffs]
    return out


def test_integral_json_model_holds_only_ints():
    model = EmipModel.from_json(_contract_blob())
    for m in (model, normalize(model)):
        assert all(type(v) is int for v in _model_scalars(m))
    built = EmipModel(
        (_var("x", F(0), F(6)),),
        (EmipConstraint(lhs={0: F(2)}, rhs={}, b=F(4)),),
        Objective("min", {0: F(3)}),
    )
    assert all(type(v) is int for v in _model_scalars(built))


def test_non_integral_json_values_stay_fractions():
    blob = _contract_blob()
    blob["variables"][1]["upper"] = "7/2"
    blob["constraints"][0]["b"] = "9.5"
    blob["objective"]["coeffs"]["y"] = "1/3"
    model = EmipModel.from_json(blob)
    assert model.variables[1].upper == F(7, 2)
    assert model.constraints[0].b == F(19, 2)
    assert dict(model.objective.coeffs)[1] == F(1, 3)
    assert sum(type(v) is F for v in _model_scalars(model)) == 3


def test_bools_are_refused_in_models():
    for path, value in ((("variables", 0, "upper"), True),
                        (("constraints", 0, "b"), False),
                        (("objective", "coeffs", "x"), True)):
        blob = _contract_blob()
        target = blob
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ValueError, match="bool"):
            EmipModel.from_json(blob)


def test_objective_with_an_unknown_variable_is_refused():
    blob = _contract_blob()
    blob["objective"]["coeffs"]["z"] = "1"
    with pytest.raises(ValueError, match="objective references unknown variable 'z'"):
        EmipModel.from_json(blob)
