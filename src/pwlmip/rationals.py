"""Exact rational scalars: parsing, formatting, and denominator clearing.

Every number in this package is an exact rational, and the public scalar type
is :class:`fractions.Fraction`.  The solver's simplex tableau holds no
Fractions: it keeps each row as Python ints over a positive row denominator
(see :mod:`pwlmip.milp.lp` and :mod:`pwlmip._kernel`), and Fractions come back
only for the vertex it reports.  :func:`clear_denominators` is how the
lowering step makes its rows integer in the first place.
"""

from __future__ import annotations

import math
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


def format_rational(q: Fraction) -> str:
    """Format exactly; int-valued rationals print without a denominator."""
    q = Fraction(q)
    return str(q)


def lcm_of_denominators(values) -> int:
    """LCM of the denominators of an iterable of rationals (>= 1)."""
    out = 1
    for v in values:
        out = math.lcm(out, Fraction(v).denominator)
    return out


def clear_denominators(coeffs, rhs):
    """Scale a row ``sum(c*x) <= rhs`` by the LCM of all denominators.

    Returns (int_coeffs, int_rhs).  ``coeffs`` is a list of (index, Fraction)
    pairs; the scaled row has the same solution set.
    """
    scale = lcm_of_denominators([c for _, c in coeffs] + [rhs])
    out = [(i, int(c * scale)) for i, c in coeffs]
    return out, int(Fraction(rhs) * scale)
