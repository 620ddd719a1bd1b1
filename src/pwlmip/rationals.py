"""Exact rational scalars: one contract, the parsers, and the JSON readers.

Every number in this package is an exact rational: an ``int`` when it is
integral and a :class:`fractions.Fraction` otherwise, the form :func:`exact`
gives, the assignment a solve returns included.  Ints and integral
Fractions compare, hash and print alike, so the contract moves no answer and
no report byte.  A Fraction is kept on purpose for a divisor such as ε in
:mod:`pwlmip.approx`, where ``int / int`` would make a float.

The JSON readers every instance format shares live here too, below every
model: :func:`json_format` checks a file's object and ``format`` tag, and
:func:`json_object`, :func:`json_array` and :func:`json_entries` read its
containers.  Each input error names the field it reads.
"""

from __future__ import annotations

from fractions import Fraction


def exact(value):
    """``value``, which Fraction must accept, as an int if integral."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def parse_rational(value):
    """Parse a rational from JSON-ish input into :func:`exact`'s form.

    Accepts ints, Fractions, "p/q" strings, and decimal strings ("-3",
    "2.5").  Floats are rejected unless they are integral, because a float
    literal in an input file almost always means an unintended rounding
    step; bools are rejected too.
    """
    if type(value) is int:  # the common case; a bool is not of type int
        return value
    if isinstance(value, bool):
        raise ValueError("expected a rational, got a bool")
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        raise ValueError(
            "refusing float %r: write rationals as strings like \"1/3\" or \"0.5\""
            % value
        )
    if isinstance(value, str):
        text = value.strip()
        if text.isdecimal() or text[:1] in ("-", "+") and text[1:].isdecimal():
            return int(text)  # the common case, without Fraction's parser
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("cannot parse rational from %r" % value) from exc
    if isinstance(value, (int, Fraction)):
        return exact(value)
    raise ValueError("cannot parse rational from %r" % (value,))


def parse_integer(value) -> int:
    """Parse an integer the way :func:`parse_rational` parses a rational.

    Bools and non-integral values are refused, not truncated.
    """
    if type(value) is int:
        return value
    try:
        q = parse_rational(value)
    except ValueError:
        q = None
    if type(q) is not int:
        raise ValueError("expected an integer, got %r" % (value,))
    return q


def parse_field(where, parse, value):
    """``parse(value)``; its input error names ``where`` (``voter 1 price: ...``)."""
    try:
        return parse(value)
    except ValueError as exc:
        raise ValueError("%s: %s" % (where, exc)) from exc


def parse_count(value, what) -> int:
    """``value`` as a nonnegative int; an input error names ``what``."""
    if type(value) is not int:
        value = parse_field(what, parse_integer, value)
    if value < 0:
        raise ValueError("%s must be nonnegative" % what)
    return value


def json_format(obj, name, noun):
    """Refuse ``obj`` unless it is a JSON object tagged ``"format": name``;
    the input error names ``noun`` (``cover must be a JSON object``)."""
    if not isinstance(obj, dict):
        raise ValueError("%s must be a JSON object" % noun)
    if obj.get("format") != name:
        raise ValueError("unsupported %s format %r (expected %r)"
                         % (noun, obj.get("format"), name))


def json_object(value, where):
    """``value``, a JSON object, null read as empty; else an input error
    that names ``where``."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError("%s must be a JSON object" % where)
    return value


def json_array(obj, key):
    """The JSON array under ``key``, absent or null read as empty; else an
    input error that names ``key``."""
    items = () if obj.get(key) is None else obj[key]
    if not isinstance(items, (list, tuple)):
        raise ValueError("%s must be a JSON array" % key)
    return items


def json_entries(obj, key, entry):
    """The JSON objects of :func:`json_array`, each read as
    :func:`json_object` reads it and named ``entry k``."""
    return [json_object(item, "%s %d" % (entry, k))
            for k, item in enumerate(json_array(obj, key))]
