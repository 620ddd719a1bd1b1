"""Exact rational scalars: parsing.

Every number in this package is an exact rational, and the public scalar type
is :class:`fractions.Fraction`.  The MILP layer holds no Fractions between
the lowering step and the pivot kernel: rows are Python ints over a positive
row denominator (see :mod:`pwlmip.milp.model`), integer variables' bounds
are ints during a search, and a vertex value is an int unless it is
fractional.  Fractions are made at the edges: the bounds of a model, the
assignment a solve returns, and the reports, which print them with ``str``
(an integral Fraction prints without a denominator).
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(value) -> Fraction:
    """Parse a rational from JSON-ish input.

    Accepts ints, "p/q" strings, and decimal strings ("-3", "2.5").  Floats
    are rejected unless they are integral, because a float literal in an
    input file almost always means an unintended rounding step.
    """
    if isinstance(value, bool):
        raise ValueError("expected a rational, got a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        if value.is_integer():
            return Fraction(int(value))
        raise ValueError(
            "refusing float %r: write rationals as strings like \"1/3\" or \"0.5\""
            % value
        )
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("cannot parse rational from %r" % value) from exc
    raise ValueError("cannot parse rational from %r" % (value,))


def parse_integer(value) -> int:
    """Parse an integer the way :func:`parse_rational` parses a rational.

    Bools and non-integral values are refused, not truncated.  An int is
    returned as it is, without building a Fraction.
    """
    if type(value) is int:
        return value
    try:
        q = parse_rational(value)
    except ValueError:
        q = None
    if q is None or q.denominator != 1:
        raise ValueError("expected an integer, got %r" % (value,))
    return q.numerator
