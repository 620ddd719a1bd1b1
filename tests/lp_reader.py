"""An independent reader of the LP text that ``export_lp`` writes.

It reads one canonical dialect and nothing more: a ``\\`` header comment,
``Maximize`` or ``Minimize``, an ``obj:`` line, ``Subject To`` with
``cK: terms <= rhs`` rows, Bounds lines ``lo <= x <= up``, ``x >= lo``,
``-infinity <= x <= up`` or ``x free`` (every variable, in model order),
an optional ``General`` section with one name per line, and ``End``.  Terms
are ``number name`` pairs with a ``+``/``-`` token before every term but an
optional one before the first.  Anything else raises an exception.

It imports nothing from pwlmip, so a round trip checks the exporter against
code it does not share.
"""

import re
from fractions import Fraction
from typing import NamedTuple

_NUMBER = re.compile(r"-?\d+(\.\d+)?\Z")


class Lp(NamedTuple):
    names: list      # variable names, in Bounds order
    lower: list      # Fraction, or None for -infinity
    upper: list      # Fraction, or None for +infinity
    integer: list    # True for the variables listed under General
    rows: list       # (((index, coeff), ...), rhs): sum(coeff * x) <= rhs
    objective: dict  # index -> coeff, as written
    sense: str       # "min" or "max"


def _number(token):
    if not _NUMBER.match(token):
        raise ValueError("not an exact number: %r" % token)
    return Fraction(token)


def _terms(tokens, index):
    """``[sign] number name (sign number name)*`` as (index, coeff) pairs."""
    out = []
    pos = 0
    while pos < len(tokens):
        sign = 1
        if tokens[pos] in ("+", "-"):
            sign = -1 if tokens[pos] == "-" else 1
            pos += 1
        elif out:
            raise ValueError("missing sign before %r" % tokens[pos])
        number, name = tokens[pos:pos + 2]
        out.append((index[name], sign * _number(number)))
        pos += 2
    return tuple(out)


def read_lp(text):
    """Plain names, bounds, integrality, rows, objective and sense."""
    lines = text.splitlines()
    if not lines[0].startswith("\\") or lines[-1] != "End":
        raise ValueError("expected a header comment and a final End")
    sense = {"Minimize": "min", "Maximize": "max"}[lines[1]]
    if not lines[2].startswith(" obj:") or lines[3] != "Subject To":
        raise ValueError("expected an obj: line and Subject To")
    body = lines[4:-1]
    sections = {"Subject To": []}
    current = sections["Subject To"]
    for line in body:
        if line in ("Bounds", "General"):
            current = sections.setdefault(line, [])
        elif line.startswith(" "):
            current.append(line.split())
        else:
            raise ValueError("unexpected line %r" % line)

    names, lower, upper = [], [], []
    for words in sections.get("Bounds", []):
        if len(words) == 2 and words[1] == "free":
            bound = (words[0], None, None)
        elif len(words) == 3 and words[1] == ">=":
            bound = (words[0], _number(words[2]), None)
        elif len(words) == 5 and words[1] == words[3] == "<=":
            lo = None if words[0] == "-infinity" else _number(words[0])
            bound = (words[2], lo, _number(words[4]))
        else:
            raise ValueError("unexpected bound %r" % " ".join(words))
        if bound[0] in names:
            raise ValueError("repeated variable %r" % bound[0])
        names.append(bound[0])
        lower.append(bound[1])
        upper.append(bound[2])
    index = {name: i for i, name in enumerate(names)}

    objective = dict(_terms(lines[2].split()[1:], index))
    rows = []
    for k, words in enumerate(sections["Subject To"]):
        if words[0] != "c%d:" % k or words[-2] != "<=":
            raise ValueError("unexpected row %r" % " ".join(words))
        rows.append((_terms(words[1:-2], index), _number(words[-1])))
    general = {index[name] for (name,) in sections.get("General", [])}
    integer = [i in general for i in range(len(names))]
    return Lp(names, lower, upper, integer, rows, objective, sense)


def satisfies(lp, point):
    """Whether ``point`` (index -> rational) meets every bound, integrality
    requirement and row of ``lp``."""
    for i in range(len(lp.names)):
        x = Fraction(point[i])
        if lp.lower[i] is not None and x < lp.lower[i]:
            return False
        if lp.upper[i] is not None and x > lp.upper[i]:
            return False
        if lp.integer[i] and x.denominator != 1:
            return False
    return all(sum(c * point[i] for i, c in coeffs) <= rhs
               for coeffs, rhs in lp.rows)
