"""LP text format: exact export, parsing, and round-trip identity."""

import random
from fractions import Fraction

import pytest

from generators import random_grid_model
from pwlmip.emip import VarKind, normalize
from pwlmip.milp import LpParseError, export_lp, parse_lp
from pwlmip.milp.model import MilpModel, MilpVariable
from pwlmip.reduction import lower

F = Fraction


def _mk(variables, rows):
    return MilpModel(
        tuple(MilpVariable(*v) for v in variables),
        tuple((tuple((i, F(c)) for i, c in coeffs), F(rhs))
              for coeffs, rhs in rows),
    )


def test_export_basic_shape():
    model = _mk(
        [("x", VarKind.INTEGER, F(0), F(6)),
         ("slack", VarKind.CONTINUOUS, F(0), None)],
        [([(0, 1), (1, -1)], 9)],
    )
    text = export_lp(model)
    assert "Minimize" in text
    assert " c0: 1 x - 1 slack <= 9" in text
    assert "Bounds" in text
    assert " 0 <= x <= 6" in text
    assert " slack >= 0" in text
    assert "General" in text and "\n x\n" in text
    assert text.endswith("End\n")


def test_round_trip_identity():
    model = _mk(
        [("x", VarKind.INTEGER, F(0), F(6)),
         ("y", VarKind.CONTINUOUS, F(-2), F(3)),
         ("z", VarKind.CONTINUOUS, F(0), None)],
        [([(0, 2), (1, -3)], 7), ([(2, 1)], 0), ([(0, -1), (2, 5)], -2)],
    )
    parsed, objective, sense = parse_lp(export_lp(model))
    assert parsed == model
    assert objective is None
    assert sense == "min"


def _decimalish(q):
    if q is None:
        return True
    den = F(q).denominator
    while den % 2 == 0:
        den //= 2
    while den % 5 == 0:
        den //= 5
    return den == 1


def test_round_trip_random_lowered_models():
    """Identity where the format allows it, equivalence everywhere.

    Rational bounds without a finite decimal are exported as extra rows, so
    structural identity only holds when every bound is decimal-exact and no
    row is variable-free; otherwise the parsed model must still accept and
    reject exactly the same points.
    """
    rng = random.Random(0x1F1)
    for _ in range(40):
        lowered, _ = lower(normalize(random_grid_model(rng)))
        parsed, _, _ = parse_lp(export_lp(lowered))
        plain = all(
            _decimalish(v.lower) and _decimalish(v.upper)
            for v in lowered.variables
        ) and all(any(c != 0 for _, c in coeffs) for coeffs, _, _ in lowered.rows)
        if plain:
            assert parsed == lowered
            continue
        assert [v.name for v in parsed.variables] == \
            [v.name for v in lowered.variables]
        assert [v.kind for v in parsed.variables] == \
            [v.kind for v in lowered.variables]
        for _ in range(25):
            point = {}
            for i, v in enumerate(lowered.variables):
                lo = v.lower if v.lower is not None else F(-9)
                hi = v.upper if v.upper is not None else lo + 9
                span = hi - lo
                point[i] = lo + span * F(rng.randint(0, 6), 6)
            assert (lowered.check_assignment(point) == []) == \
                (parsed.check_assignment(point) == [])


def test_export_is_a_fixpoint():
    rng = random.Random(0x1F2)
    for _ in range(20):
        lowered, _ = lower(normalize(random_grid_model(rng)))
        text = export_lp(lowered)
        parsed, _, _ = parse_lp(text)
        assert export_lp(parsed) == text


def test_objective_export_and_sense():
    model = _mk([("x", VarKind.INTEGER, F(0), F(6))], [([(0, 1)], 5)])
    text = export_lp(model, objective={0: F(3)}, sense="max")
    assert "Maximize" in text
    assert " obj: 3 x" in text
    parsed, objective, sense = parse_lp(text)
    assert parsed == model
    assert objective == {0: F(3)}
    assert sense == "max"
    with pytest.raises(ValueError, match="decimal"):
        export_lp(model, objective={0: F(1, 3)})


def test_rational_bound_becomes_row_plus_relaxed_bound():
    # upper bound 7/3 has no finite decimal: export adds the row 3x <= 7 and
    # relaxes the Bounds entry to the ceiling
    model = _mk([("x", VarKind.CONTINUOUS, F(0), F(7, 3))], [([(0, 1)], 9)])
    text = export_lp(model)
    assert " c1: 3 x <= 7" in text
    assert " 0 <= x <= 3" in text
    parsed, _, _ = parse_lp(text)
    # the parsed model is different syntax but the same feasible set
    assert parsed.variables[0].upper == 3
    assert (((0, 3),), 7, 1) in parsed.rows
    # x = 7/3 is feasible in both, x = 5/2 in neither
    assert parsed.check_assignment({0: F(7, 3)}) == []
    assert parsed.check_assignment({0: F(5, 2)}) != []
    assert model.check_assignment({0: F(5, 2)}) != []


def test_decimal_bounds_round_trip_exactly():
    model = _mk([("x", VarKind.CONTINUOUS, F(-1, 2), F(9, 4))], [([(0, 1)], 9)])
    text = export_lp(model)
    assert " -0.5 <= x <= 2.25" in text
    parsed, _, _ = parse_lp(text)
    assert parsed == model


def test_fractional_row_coefficients_are_cleared():
    model = _mk([("x", VarKind.CONTINUOUS, F(0), F(4))], [([(0, F(1, 2))], F(3, 4))])
    text = export_lp(model)
    assert " c0: 2 x <= 3" in text


def test_variable_free_and_constant_rows():
    model = _mk(
        [("x", VarKind.CONTINUOUS, None, None)],
        [((), 5), ([(0, 1)], 2)],
    )
    text = export_lp(model)
    assert " x free" in text
    assert " c0: 0 x <= 5" in text  # variable-free row stays a row
    parsed, _, _ = parse_lp(text)
    assert parsed.variables[0].lower is None
    assert parsed.variables[0].upper is None


def test_bad_variable_name_rejected():
    model = _mk([("2bad", VarKind.CONTINUOUS, F(0), F(1))], [([(0, 1)], 1)])
    with pytest.raises(ValueError, match="LP-safe"):
        export_lp(model)


def test_parser_relaxations():
    text = """
Minimize
 obj:
Subject To
 r1: x + 2 y >= 3
 r2: x = 1
Bounds
 x <= 4
 y free
General
 x
End
"""
    model, objective, sense = parse_lp(text)
    names = [v.name for v in model.variables]
    assert names == ["x", "y"]
    # >= flips; = splits into two rows
    assert (((0, -1), (1, -2)), -3, 1) in model.rows
    assert (((0, 1),), 1, 1) in model.rows
    assert (((0, -1),), -1, 1) in model.rows
    assert model.variables[0].kind is VarKind.INTEGER
    assert model.variables[1].lower is None


def test_parse_errors():
    with pytest.raises(LpParseError, match="before any section"):
        parse_lp("x + y <= 3\n")
    with pytest.raises(LpParseError, match="relation"):
        parse_lp("Subject To\n r: x + y\nEnd\n")
    with pytest.raises(LpParseError, match="single number"):
        parse_lp("Subject To\n r: x <= 1 2\nEnd\n")
    with pytest.raises(LpParseError, match="bound line"):
        parse_lp("Bounds\n x <= <= 3\nEnd\n")
    with pytest.raises(LpParseError, match="tokenize"):
        parse_lp("Subject To\n r: x ~ 3\nEnd\n")
