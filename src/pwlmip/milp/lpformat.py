"""CPLEX-style LP text format: exact export.

Numbers are written as exact integers or exact decimals, never floats.  Rows
are written as the model stores them, in integers.  The objective is scaled
to integers by a positive factor, as :func:`~pwlmip.milp.model.integer_row`
scales a row, which keeps its optimal points.  A
rational bound whose denominator is not of the form 2^a*5^b has no finite
decimal; such a bound is exported as an extra integer row plus the weaker
floor/ceil bound in the Bounds section, which preserves the feasible set
exactly.

The output is one canonical dialect: a header comment, the sense, an
``obj:`` line, ``cK: ... <= rhs`` rows, Bounds lines of the forms
``lo <= x <= up``, ``x >= lo``, ``-infinity <= x <= up`` and ``x free``
(every variable listed, in model order), a General section and ``End``.
Nothing in the package reads it back; the tests check it with a reader of
their own.
"""

from __future__ import annotations

import re

from .model import MilpModel, VarKind, integer_row

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*\Z")


def _decimal_exact(q):
    """Finite decimal string for q (an int or Fraction), or None if none exists."""
    den = q.denominator
    if den == 1:
        return str(q.numerator)
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return None
    digits = max(twos, fives)
    scaled = q.numerator * 10**digits // q.denominator
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    whole, frac = text[:-digits], text[-digits:]
    return "%s%s.%s" % (sign, whole, frac)


def export_lp(model: MilpModel, objective=None, sense="min") -> str:
    """Serialize to LP text.  ``objective`` maps variable index to an exact
    coefficient (a dict or pairs); it is written over the lcm of its
    denominators."""
    for v in model.variables:
        if not _NAME_RE.match(v.name):
            raise ValueError("variable name %r is not LP-safe" % v.name)
    names = [v.name for v in model.variables]

    extra_rows = []
    bounds_lines = []
    for i, v in enumerate(model.variables):
        lower, upper = v.lower, v.upper
        if lower is not None and _decimal_exact(lower) is None:
            # exact value via a row, weaker integral bound in Bounds
            extra_rows.append((((i, -lower.denominator),), -lower.numerator))
            lower = lower.__floor__()
        if upper is not None and _decimal_exact(upper) is None:
            extra_rows.append((((i, upper.denominator),), upper.numerator))
            upper = upper.__ceil__()
        if lower is None and upper is None:
            bounds_lines.append(" %s free" % v.name)
        elif lower is None:
            bounds_lines.append(" -infinity <= %s <= %s" % (v.name, _decimal_exact(upper)))
        elif upper is None:
            bounds_lines.append(" %s >= %s" % (v.name, _decimal_exact(lower)))
        else:
            bounds_lines.append(
                " %s <= %s <= %s" % (_decimal_exact(lower), v.name, _decimal_exact(upper))
            )

    def render_terms(coeffs):
        parts = []
        for i, c in coeffs:
            if c == 0:
                continue
            mag = _decimal_exact(abs(c))
            if parts:
                parts.append("+" if c > 0 else "-")
            elif c < 0:
                parts.append("-")
            parts.append("%s %s" % (mag, names[i]))
        return " ".join(parts)

    lines = ["\\ pwlmip model"]
    lines.append("Maximize" if sense == "max" else "Minimize")
    if objective:
        if isinstance(objective, dict):
            objective = objective.items()
        obj_coeffs, _ = integer_row(objective, 0, model.n_vars)
        lines.append(" obj: " + (render_terms(obj_coeffs) or "0 " + names[0]))
    else:
        lines.append(" obj:")
    lines.append("Subject To")
    count = 0
    for coeffs, rhs in model.rows + tuple(extra_rows):
        body = render_terms(coeffs)
        if not body:
            # A row with no variables is a tautology or a contradiction; keep
            # it honest by anchoring on the first variable with coefficient 0.
            if not names:
                raise ValueError("cannot export a variable-free row")
            body = "0 %s" % names[0]
        lines.append(" c%d: %s <= %s" % (count, body, rhs))
        count += 1
    if bounds_lines:
        lines.append("Bounds")
        lines.extend(bounds_lines)
    generals = [v.name for v in model.variables if v.kind is VarKind.INTEGER]
    if generals:
        lines.append("General")
        for name in generals:
            lines.append(" %s" % name)
    lines.append("End")
    return "\n".join(lines) + "\n"

