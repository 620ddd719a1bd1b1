"""LP text format: exact export, read back by an independent reader."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from generators import random_grid_model
from lp_reader import read_lp, satisfies
from pwlmip.emip import VarKind, normalize
from pwlmip.milp import export_lp
from pwlmip.milp.model import MilpModel, Variable, integer_row
from pwlmip.reduction import lower

F = Fraction


def _mk(variables, rows):
    variables = tuple(Variable(*v) for v in variables)
    return MilpModel(variables, tuple(
        integer_row(((i, F(c)) for i, c in coeffs), F(rhs), len(variables))
        for coeffs, rhs in rows))


def _rebuild(lp):
    """The model the reader's plain data names, rows as :class:`MilpModel`
    takes them."""
    return MilpModel(
        tuple(Variable(name, VarKind.INTEGER if general else
                       VarKind.CONTINUOUS, lo, up)
              for name, lo, up, general in zip(lp.names, lp.lower, lp.upper,
                                                lp.integer)),
        tuple(integer_row(coeffs, rhs, len(lp.names))
              for coeffs, rhs in lp.rows))


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
    lp = read_lp(export_lp(model))
    assert _rebuild(lp) == model
    assert lp.objective == {}
    assert lp.sense == "min"


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
    row is variable-free; otherwise what was read must still accept and
    reject exactly the same points.
    """
    rng = random.Random(0x1F1)
    for _ in range(40):
        lowered, _ = lower(normalize(random_grid_model(rng)))
        lp = read_lp(export_lp(lowered))
        plain = all(
            _decimalish(v.lower) and _decimalish(v.upper)
            for v in lowered.variables
        ) and all(any(c != 0 for _, c in coeffs) for coeffs, _ in lowered.rows)
        if plain:
            assert _rebuild(lp) == lowered
            continue
        assert lp.names == [v.name for v in lowered.variables]
        assert lp.integer == [v.kind is VarKind.INTEGER
                              for v in lowered.variables]
        for _ in range(25):
            point = {}
            for i, v in enumerate(lowered.variables):
                lo = v.lower if v.lower is not None else F(-9)
                hi = v.upper if v.upper is not None else lo + 9
                span = hi - lo
                point[i] = lo + span * F(rng.randint(0, 6), 6)
            assert (lowered.check_assignment(point) == []) == \
                satisfies(lp, point)


def test_export_is_a_fixpoint():
    rng = random.Random(0x1F2)
    for _ in range(20):
        lowered, _ = lower(normalize(random_grid_model(rng)))
        text = export_lp(lowered)
        assert export_lp(_rebuild(read_lp(text))) == text


def test_objective_export_and_sense():
    model = _mk([("x", VarKind.INTEGER, F(0), F(6))], [([(0, 1)], 5)])
    text = export_lp(model, objective={0: F(3)}, sense="max")
    assert "Maximize" in text
    assert " obj: 3 x" in text
    lp = read_lp(text)
    assert _rebuild(lp) == model
    assert lp.objective == {0: F(3)}
    assert lp.sense == "max"
    # a rational objective is scaled to integers, as rows are
    text = export_lp(model, objective={0: F(1, 3)})
    assert " obj: 1 x" in text
    assert read_lp(text).objective == {0: F(1)}


def test_rational_bound_becomes_row_plus_relaxed_bound():
    # upper bound 7/3 has no finite decimal: export adds the row 3x <= 7 and
    # relaxes the Bounds entry to the ceiling
    model = _mk([("x", VarKind.CONTINUOUS, F(0), F(7, 3))], [([(0, 1)], 9)])
    text = export_lp(model)
    assert " c1: 3 x <= 7" in text
    assert " 0 <= x <= 3" in text
    lp = read_lp(text)
    # what was read is different syntax but the same feasible set
    assert lp.upper[0] == 3
    assert (((0, 3),), 7) in lp.rows
    # x = 7/3 is feasible in both, x = 5/2 in neither
    assert satisfies(lp, {0: F(7, 3)})
    assert not satisfies(lp, {0: F(5, 2)})
    assert model.check_assignment({0: F(5, 2)}) != []
    # a lower bound -4/3 becomes the row -3y <= 4 and the floor -2
    model = _mk([("y", VarKind.CONTINUOUS, F(-4, 3), F(2))], [([(0, 1)], 9)])
    text = export_lp(model)
    assert " c1: - 3 y <= 4" in text
    assert " -2 <= y <= 2" in text
    lp = read_lp(text)
    assert satisfies(lp, {0: F(-4, 3)})
    assert not satisfies(lp, {0: F(-3, 2)})


def test_decimal_bounds_round_trip_exactly():
    model = _mk([("x", VarKind.CONTINUOUS, F(-1, 2), F(9, 4))], [([(0, 1)], 9)])
    text = export_lp(model)
    assert " -0.5 <= x <= 2.25" in text
    assert _rebuild(read_lp(text)) == model


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
    lp = read_lp(text)
    assert lp.lower[0] is None
    assert lp.upper[0] is None


def test_bad_variable_name_rejected():
    model = _mk([("2bad", VarKind.CONTINUOUS, F(0), F(1))], [([(0, 1)], 1)])
    with pytest.raises(ValueError, match="LP-safe"):
        export_lp(model)


def test_reader_imports_nothing_from_pwlmip():
    """The reader shares no code with the exporter it checks."""
    tree = ast.parse((Path(__file__).parent / "lp_reader.py").read_text())
    modules = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert modules and not any(m.split(".")[0] == "pwlmip" for m in modules)
