"""The record base: equality, hashing, immutability and repr by field."""

import copy
import pickle
from fractions import Fraction

import pytest

from pwlmip.approx import AlmostCoverSolution, EmittedVector
from pwlmip.covering import CoverSolution
from pwlmip.emip import Objective
from pwlmip.milp import SolveResult, SolveStats
from pwlmip.oracle import OracleAnswer, OracleBudget
from pwlmip.pwl import PwlFunction, Shape
from pwlmip.records import Frozen
from pwlmip.voting import ManipulationResult


class Pair(Frozen):
    __slots__ = _fields = ("first", "second")

    def __init__(self, first, second):
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)


class OtherPair(Pair):
    __slots__ = ()


def test_equality_and_hash_follow_the_fields():
    ints = PwlFunction(Shape.CONVEX, 2, (1, 3), (0, 1, 4))
    fractions = PwlFunction(Shape.CONVEX, Fraction(4, 2), (Fraction(1), Fraction(3)),
                            (Fraction(0), Fraction(2, 2), Fraction(4)))
    assert ints == fractions and not ints != fractions
    assert hash(ints) == hash(fractions)
    assert len({ints, fractions}) == 1
    assert ints != PwlFunction(Shape.CONVEX, 2, (1, 3), (0, 1, 5))
    assert ints != PwlFunction(Shape.CONCAVE, 0, (), (1,))


def test_records_of_different_classes_are_never_equal():
    assert Pair(1, 2) == Pair(1, 2)
    assert Pair(1, 2) != OtherPair(1, 2) and OtherPair(1, 2) != Pair(1, 2)
    assert OracleAnswer(True, 3, ()) == OracleAnswer(True, 3, ())
    assert OracleBudget(5) != 5 and OracleBudget(5) != (5,)


def test_frozen_records_refuse_assignment_and_deletion():
    fn = PwlFunction.linear(3)
    with pytest.raises(AttributeError):
        fn.slopes = (4,)
    with pytest.raises(AttributeError):
        del fn.slopes
    with pytest.raises(AttributeError):
        fn.extra = 1
    assert fn.slopes == (3,)
    assert isinstance(fn, Frozen)


@pytest.mark.parametrize("record", [
    SolveStats(), SolveResult(False, None), CoverSolution(False),
    ManipulationResult(False), AlmostCoverSolution(False)])
def test_result_records_stay_mutable_and_unhashable(record):
    name = record._fields[0]
    setattr(record, name, 7)
    assert getattr(record, name) == 7
    with pytest.raises(TypeError):
        hash(record)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_result_records_get_a_fresh_stats_each():
    first, second = CoverSolution(False), CoverSolution(False)
    first.stats.nodes += 1
    assert second.stats.nodes == 0


def test_emitted_vector_equality_ignores_realized():
    vector = EmittedVector(3, (Fraction(1, 2), 1), 0)
    twin = EmittedVector(3, (Fraction(1, 2), 1), 0)
    object.__setattr__(twin, "_realized", (9, 9))
    assert vector == twin and hash(vector) == hash(twin)
    assert vector.realized() == (1, 3)
    assert vector != EmittedVector(3, (Fraction(1, 2), 1), 1)
    assert "_realized" not in repr(vector)


def test_repr_names_every_field():
    assert repr(Objective("max", {1: 2, 0: Fraction(1, 2)})) == (
        "Objective(sense='max', coeffs=((0, Fraction(1, 2)), (1, 2)))")
    assert repr(SolveStats(nodes=2)) == (
        "SolveStats(nodes=2, lp_calls=0, pivots=0, probes=0, infeasible_lps=0, "
        "rounding_lps=0, max_depth=0, max_tableau=(0, 0))")
    assert repr(EmittedVector(2, (1,), 4)) == "EmittedVector(beta=2, shape=(1,), origin=4)"


def test_records_copy_and_pickle():
    for record in (PwlFunction.linear(3), EmittedVector(3, (Fraction(1, 2), 1), 0),
                   SolveStats(nodes=2), CoverSolution(True, (1,), 2, (3,))):
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert clone == record and clone is not record
    assert copy.copy(EmittedVector(3, (Fraction(1, 2), 1), 0)).realized() == (1, 3)
