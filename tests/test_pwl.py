"""Piecewise-linear functions: construction, evaluation, and serialization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from generators import chord_ok, random_pwl, reference_eval
from pwlmip.pwl import PwlFunction, Shape, prefix_sum_term
from pwlmip.rationals import parse_integer, parse_rational

F = Fraction


# ---------------------------------------------------------------------------
# frozen examples
# ---------------------------------------------------------------------------


def test_linear_eval():
    fn = PwlFunction.linear(3, 2)
    assert fn.is_linear
    assert fn.eval(0) == 2
    assert fn.eval(5) == 17
    assert fn.eval(F(-1, 2)) == F(1, 2)


def test_two_piece_convex_eval():
    fn = PwlFunction(Shape.CONVEX, 0, (2,), (1, 3))
    assert fn.eval(0) == 0
    assert fn.eval(2) == 2
    assert fn.eval(5) == 11
    assert fn.eval(F(5, 2)) == F(7, 2)


def test_negative_breakpoints_keep_anchor():
    # slope -2 until -1, flat until 1, slope 5 after; anchored to 7 at x=0
    fn = PwlFunction(Shape.CONVEX, 7, (-1, 1), (-2, 0, 5))
    assert fn.eval(0) == 7
    assert fn.eval(-1) == 7
    assert fn.eval(-3) == 11
    assert fn.eval(1) == 7
    assert fn.eval(3) == 17


def test_from_sorted_weights_prefix_sums():
    fn = PwlFunction.from_sorted_weights([3, 1, 2])
    assert fn.shape is Shape.CONVEX
    assert fn.breakpoints == (1, 2)
    assert fn.slopes == (1, 2, 3)
    assert [fn.eval(k) for k in range(4)] == [0, 1, 3, 6]


def test_from_sorted_multiplicities_prefix_sums():
    fn = PwlFunction.from_sorted_multiplicities([1, 4, 2])
    assert fn.shape is Shape.CONCAVE
    assert fn.slopes == (4, 2, 1)
    assert [fn.eval(k) for k in range(4)] == [0, 4, 6, 7]


def test_from_sorted_empty_collections_are_zero():
    for fn in (PwlFunction.from_sorted_weights([]),
               PwlFunction.from_sorted_multiplicities([])):
        assert fn.is_linear
        assert fn.eval(7) == 0


def test_from_sorted_rejects_negative():
    with pytest.raises(ValueError):
        PwlFunction.from_sorted_weights([2, -1])
    with pytest.raises(ValueError):
        PwlFunction.from_sorted_multiplicities([-3])


def test_prefix_sum_term_is_a_coefficient_for_equal_values():
    """One value, or several equal ones, make a linear term: the value
    itself, as exact gives it; values that differ make the function of
    the shape's constructor, and a negative value is refused either way."""
    assert prefix_sum_term([5], Shape.CONVEX) == 5
    assert type(prefix_sum_term([Fraction(6, 3)] * 3, Shape.CONCAVE)) is int
    assert prefix_sum_term([Fraction(1, 2)] * 2, Shape.CONVEX) == Fraction(1, 2)
    assert prefix_sum_term([0, 0], Shape.CONVEX) == 0
    assert prefix_sum_term([3, 1, 2], Shape.CONVEX) == \
        PwlFunction.from_sorted_weights([3, 1, 2])
    assert prefix_sum_term([1, 4, 2], Shape.CONCAVE) == \
        PwlFunction.from_sorted_multiplicities([1, 4, 2])
    for shape in Shape:
        with pytest.raises(ValueError):
            prefix_sum_term([-1, -1], shape)


def test_equal_slopes_merge():
    fn = PwlFunction(Shape.CONVEX, 0, (1, 2), (1, 1, 2))
    assert fn.breakpoints == (2,)
    assert fn.slopes == (1, 2)


def test_construction_errors():
    with pytest.raises(ValueError, match="one slope per piece"):
        PwlFunction(Shape.CONVEX, 0, (1,), (1, 2, 3))
    with pytest.raises(ValueError, match="ascending"):
        PwlFunction(Shape.CONVEX, 0, (2, 1), (1, 2, 3))
    with pytest.raises(ValueError, match="convex"):
        PwlFunction(Shape.CONVEX, 0, (1,), (3, 1))
    with pytest.raises(ValueError, match="concave"):
        PwlFunction(Shape.CONCAVE, 0, (1,), (1, 3))


def test_piece_index_boundaries():
    fn = PwlFunction(Shape.CONVEX, 0, (2,), (1, 3))
    assert fn.piece_index(2) == 0  # pieces are right-closed
    assert fn.piece_index(F(5, 2)) == 1
    assert fn.piece_index(-10) == 0


def test_range_on_box():
    fn = PwlFunction(Shape.CONVEX, 0, (2,), (1, 3))
    assert fn.range_on(0, 5) == (0, 11)
    assert fn.range_on(3, 5) == (5, 11)
    assert fn.range_on(0, None) == (0, None)  # increasing tail
    dec = PwlFunction(Shape.CONCAVE, 0, (), (-2,))
    assert dec.range_on(1, None) == (None, -2)
    with pytest.raises(ValueError):
        fn.range_on(5, 3)


def test_range_on_interior_breakpoint_is_extremum():
    # concave peak at the breakpoint, away from both endpoints
    fn = PwlFunction(Shape.CONCAVE, 0, (2,), (1, -1))
    assert fn.range_on(0, 5) == (-1, 2)


def test_drop_negative_breakpoints():
    fn = PwlFunction(Shape.CONVEX, 7, (-1, 1), (-2, 0, 5))
    dropped = fn.drop_negative_breakpoints()
    assert dropped.breakpoints == (1,)
    assert dropped.slopes == (0, 5)
    assert dropped.eval(0) == 7
    for x in (0, 1, 2, 7):  # agrees right of the kept region
        assert dropped.eval(x) == fn.eval(x)
    assert fn.drop_negative_breakpoints() is not fn
    assert dropped.drop_negative_breakpoints() is dropped


def test_json_round_trip():
    fn = PwlFunction(Shape.CONCAVE, F(1, 2), (F(3, 2),), (2, F(-1, 3)))
    assert PwlFunction.from_json(fn.to_json()) == fn
    with pytest.raises(ValueError, match="shape"):
        PwlFunction.from_json({"slopes": ["1"]})
    with pytest.raises(ValueError):
        PwlFunction.from_json("not an object")


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def functions(draw, shape=None):
    if shape is None:
        shape = draw(st.sampled_from((Shape.CONVEX, Shape.CONCAVE)))
    bps = tuple(sorted(draw(st.sets(_fractions, max_size=4))))
    raw = draw(
        st.lists(_fractions, min_size=len(bps) + 1, max_size=len(bps) + 1)
    )
    slopes = sorted(raw, reverse=shape is Shape.CONCAVE)
    v0 = draw(_fractions)
    return PwlFunction(shape, v0, bps, tuple(slopes))


@given(functions(), _fractions)
def test_eval_matches_piece_walk(fn, x):
    assert fn.eval(x) == reference_eval(fn, x)


@given(functions(), st.sets(_fractions, min_size=3, max_size=3))
def test_chord_inequality(fn, xs):
    x1, x2, x3 = sorted(xs)
    assert chord_ok(fn, x1, x2, x3)


@given(functions())
def test_json_round_trip_property(fn):
    assert PwlFunction.from_json(fn.to_json()) == fn


@given(functions(), _fractions)
def test_drop_negative_breakpoints_agrees_on_nonnegatives(fn, x):
    dropped = fn.drop_negative_breakpoints()
    assert dropped.eval(0) == fn.eval(0)
    if x >= 0:
        assert dropped.eval(x) == fn.eval(x)


def test_eval_matches_piece_walk_bulk():
    rng = random.Random(0x9A1)
    for _ in range(400):
        fn = random_pwl(rng, max_pieces=4)
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 5))
        assert fn.eval(x) == reference_eval(fn, x)


# ---------------------------------------------------------------------------
# the scalar contract: ints when integral, Fractions otherwise
# ---------------------------------------------------------------------------


def _scalars(fn):
    return (fn.value_at_zero, *fn.breakpoints, *fn.slopes)


def test_integral_json_values_are_ints():
    fn = PwlFunction.from_json({"shape": "convex", "value_at_zero": "2",
                                "breakpoints": [1, "3"],
                                "slopes": ["-1", "4/2", 5.0]})
    assert all(type(v) is int for v in _scalars(fn))
    assert type(fn.eval(4)) is int and type(fn.eval(F(8, 2))) is int
    assert all(type(v) is int for v in fn.range_on(0, 6))
    for built in (PwlFunction.linear(F(3), F(2)),
                  PwlFunction.from_sorted_weights([F(2), 1, "3"]),
                  PwlFunction.from_sorted_multiplicities([F(4, 2), 1]),
                  fn.with_value_at_zero(F(0)).drop_negative_breakpoints()):
        assert all(type(v) is int for v in _scalars(built))


def test_non_integral_values_stay_fractions():
    fn = PwlFunction.from_json({"shape": "concave", "value_at_zero": "1/2",
                                "breakpoints": ["0.5"], "slopes": [1, "1/3"]})
    assert fn.value_at_zero == F(1, 2) and type(fn.value_at_zero) is F
    assert fn.breakpoints == (F(1, 2),) and type(fn.breakpoints[0]) is F
    assert [type(s) for s in fn.slopes] == [int, F]
    assert type(fn.eval(1)) is F and type(fn.eval(F(7, 2))) is int


def test_bools_are_refused():
    for key, value in (("value_at_zero", True), ("breakpoints", [False]),
                       ("slopes", [True])):
        blob = {"shape": "convex", "slopes": [0]}
        blob[key] = value
        with pytest.raises(ValueError, match="bool"):
            PwlFunction.from_json(blob)


def test_parsers_take_ints_and_refuse_bools():
    for value in (0, 7, -3, 10**30):
        assert parse_rational(value) == parse_integer(value) == value
        assert type(parse_rational(value)) is int is type(parse_integer(value))
    for parse in (parse_rational, parse_integer):
        for value in (True, False):
            with pytest.raises(ValueError, match="bool|expected an integer"):
                parse(value)


def test_one_piece_functions_match_the_merged_path():
    """A one-piece function skips the ordering, merge and shape checks; it
    equals, hashes and evaluates like the same piece reached by merging two
    pieces of equal slope, which runs every check."""
    for shape in Shape:
        for slope, at_zero in ((3, 0), (F(3, 1), F(2)), (F(-1, 2), 5)):
            merged = PwlFunction(shape, at_zero, (4,), (slope, slope))
            for built in (PwlFunction(shape, at_zero, (), (slope,)),
                          PwlFunction.linear(slope, at_zero, shape),
                          PwlFunction.from_json(merged.to_json())):
                assert built == merged and hash(built) == hash(merged)
                assert built.breakpoints == () and built.is_linear
                assert [type(v) for v in _scalars(built)] == \
                    [type(v) for v in _scalars(merged)]
                for x in (0, 4, F(-7, 3), 11):
                    assert built.eval(x) == merged.eval(x)
                    assert type(built.eval(x)) is type(merged.eval(x))
    with pytest.raises(ValueError, match="one slope per piece"):
        PwlFunction(Shape.CONVEX, 0, (), (1, 2))
    with pytest.raises(ValueError, match="one slope per piece"):
        PwlFunction(Shape.CONVEX, 0, (), ())


def test_from_json_names_a_field_that_is_not_an_array():
    for key, value in (("breakpoints", 3), ("slopes", "1"), ("slopes", {"0": 1})):
        blob = {"shape": "convex", "breakpoints": [], "slopes": [1]}
        blob[key] = value
        with pytest.raises(ValueError, match="^%s must be a JSON array$" % key):
            PwlFunction.from_json(blob)
    fn = PwlFunction.from_json({"shape": "concave", "breakpoints": None,
                                "slopes": [2]})
    assert fn == PwlFunction.linear(2, 0, Shape.CONCAVE)


def test_int_and_fraction_functions_are_equal():
    ints = PwlFunction(Shape.CONCAVE, 0, (1, 2), (3, 2, 1))
    fractions = PwlFunction(Shape.CONCAVE, F(0), (F(1), F(2)), (F(3), F(2), F(1)))
    assert ints == fractions and hash(ints) == hash(fractions)
    assert all(type(v) is int for v in _scalars(fractions))
