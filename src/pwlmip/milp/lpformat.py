"""CPLEX-style LP text format: exact export and a round-tripping parser.

Numbers are written as exact integers or exact decimals, never floats.  Rows
are written as the model stores them, integers with their denominator
dropped, which scales each row by a positive factor and keeps its solution
set.  A rational bound whose denominator is not of the form 2^a*5^b has no
finite decimal; such a bound is exported as an extra integer row plus the
weaker floor/ceil bound in the Bounds section, which preserves the feasible
set exactly.

The parser accepts what the writer emits plus the usual relaxations (>=, =,
implicit coefficients, 'Generals', multi-token bound lines).  When a Bounds
section lists every variable, parsed variable order follows it, so
export -> parse -> export is the identity on canonical output.
"""

from __future__ import annotations

import re
from fractions import Fraction

from ..emip import VarKind
from ..rationals import ZERO
from .model import MilpModel, MilpVariable

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*\Z")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[+-]?(?:\d+(?:\.\d*)?|\.\d+))|(?P<name>[A-Za-z_][A-Za-z0-9_.]*)"
    r"|(?P<rel><=|>=|=|<|>)|(?P<sign>[+-])|(?P<colon>:))"
)
_INF_RE = re.compile(r"[+-]?inf(inity)?\Z", re.IGNORECASE)


def _decimal_exact(q: Fraction):
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
    """Serialize to LP text.  ``objective`` maps variable index to coefficient."""
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
            extra_rows.append((((i, -lower.denominator),), -lower.numerator, 1))
            lower = lower.__floor__()
        if upper is not None and _decimal_exact(upper) is None:
            extra_rows.append((((i, upper.denominator),), upper.numerator, 1))
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
        obj_coeffs = sorted(
            (int(i), Fraction(c)) for i, c in (
                objective.items() if isinstance(objective, dict) else objective
            )
        )
        for _, c in obj_coeffs:
            if _decimal_exact(c) is None:
                raise ValueError(
                    "objective coefficient %s has no finite decimal; scale the "
                    "objective to integers first" % c
                )
        lines.append(" obj: " + (render_terms(obj_coeffs) or "0 " + names[0]))
    else:
        lines.append(" obj:")
    lines.append("Subject To")
    count = 0
    for coeffs, rhs, _ in model.rows + tuple(extra_rows):
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


class LpParseError(ValueError):
    pass


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise LpParseError("cannot tokenize %r" % text[pos : pos + 20])
        tokens.append(m)
        pos = m.end()
    return tokens


_SECTION_STARTS = {
    "minimize": "objective",
    "maximize": "objective",
    "min": "objective",
    "max": "objective",
    "subject": "rows",
    "st": "rows",
    "s.t.": "rows",
    "bounds": "bounds",
    "bound": "bounds",
    "general": "general",
    "generals": "general",
    "gen": "general",
    "end": "end",
}


def parse_lp(text: str):
    """Parse LP text into (MilpModel, objective, sense).

    The objective is a dict {index: Fraction} or None when the objective row
    is empty.  Only <=/>=/= rows, bounds, and General sections are understood,
    which covers everything :func:`export_lp` produces.
    """
    sections = {"objective": [], "rows": [], "bounds": [], "general": []}
    current = None
    sense = "min"
    for raw in text.splitlines():
        line = raw.split("\\")[0].strip()
        if not line:
            continue
        word = line.split()[0].lower()
        key = word if word in _SECTION_STARTS else line.lower()
        if key in _SECTION_STARTS:
            section = _SECTION_STARTS[key]
            if section == "end":
                break
            if section == "objective" and word in ("maximize", "max"):
                sense = "max"
            current = section
            rest = line[len(word):].strip() if word in _SECTION_STARTS else ""
            if rest and current == "rows" and rest.lower() == "to":
                rest = ""
            if rest:
                sections[current].append(rest)
            continue
        if current is None:
            raise LpParseError("content before any section header: %r" % line)
        sections[current].append(line)

    order = []
    index = {}

    def var_id(name):
        if name not in index:
            index[name] = len(order)
            order.append(name)
        return index[name]

    # Bounds are processed first: a canonical export lists every variable
    # there in model order, which makes export -> parse order-preserving.
    lowers = {}
    uppers = {}
    for line in sections["bounds"]:
        _parse_bound_line(line, var_id, lowers, uppers)

    def parse_expr(tokens, start):
        """Parse terms until a relation token; returns (coeffs, rel_pos)."""
        coeffs = {}
        sign = Fraction(1)
        pending = None  # number waiting for a name
        i = start
        while i < len(tokens):
            tok = tokens[i]
            if tok.lastgroup == "rel":
                break
            if tok.lastgroup == "sign":
                if pending is not None:
                    raise LpParseError("dangling constant %s" % pending)
                sign = Fraction(1) if tok.group("sign") == "+" else Fraction(-1)
            elif tok.lastgroup == "num":
                if pending is not None:
                    raise LpParseError("two numbers in a row in expression")
                pending = _parse_number(tok.group("num"))
            elif tok.lastgroup == "name":
                c = sign * (pending if pending is not None else 1)
                idx = var_id(tok.group("name"))
                coeffs[idx] = coeffs.get(idx, ZERO) + c
                sign = Fraction(1)
                pending = None
            else:
                raise LpParseError("unexpected token in expression")
            i += 1
        if pending is not None:
            raise LpParseError("constant terms in rows are not supported")
        return coeffs, i

    # Objective
    objective = None
    obj_text = " ".join(sections["objective"])
    if obj_text:
        tokens = _tokenize(obj_text)
        start = 0
        if (
            len(tokens) >= 2
            and tokens[0].lastgroup == "name"
            and tokens[1].lastgroup == "colon"
        ):
            start = 2
        coeffs, stop = parse_expr(tokens, start)
        if stop != len(tokens):
            raise LpParseError("relation inside objective")
        coeffs = {i: c for i, c in coeffs.items() if c != 0}
        objective = coeffs or None

    # Rows
    rows = []
    for line in sections["rows"]:
        tokens = _tokenize(line)
        start = 0
        if (
            len(tokens) >= 2
            and tokens[0].lastgroup == "name"
            and tokens[1].lastgroup == "colon"
        ):
            start = 2
        coeffs, rel_pos = parse_expr(tokens, start)
        if rel_pos >= len(tokens):
            raise LpParseError("row without relation: %r" % line)
        rel = tokens[rel_pos].group("rel")
        rhs_tokens = tokens[rel_pos + 1 :]
        if len(rhs_tokens) != 1 or rhs_tokens[0].lastgroup != "num":
            raise LpParseError("row right-hand side must be a single number")
        rhs = _parse_number(rhs_tokens[0].group("num"))
        items = tuple(sorted(coeffs.items()))
        if rel in ("<=", "<"):
            rows.append((items, rhs))
        elif rel in (">=", ">"):
            rows.append((tuple((i, -c) for i, c in items), -rhs))
        else:
            rows.append((items, rhs))
            rows.append((tuple((i, -c) for i, c in items), -rhs))

    # General
    integers = set()
    for line in sections["general"]:
        for name in line.split():
            integers.add(var_id(name))

    variables = []
    for i, name in enumerate(order):
        variables.append(
            MilpVariable(
                name=name,
                kind=VarKind.INTEGER if i in integers else VarKind.CONTINUOUS,
                lower=lowers.get(i, ZERO),
                upper=uppers.get(i),
            )
        )
    model = MilpModel(tuple(variables), tuple(rows))
    return model, objective, sense


def _parse_number(text):
    text = text.strip()
    if text.endswith("."):
        text = text[:-1]
    return Fraction(text)


def _parse_bound_line(line, var_id, lowers, uppers):
    parts = line.split()
    lowered = [p.lower() for p in parts]
    if len(parts) == 2 and lowered[1] == "free":
        lowers[var_id(parts[0])] = None
        uppers[var_id(parts[0])] = None
        return

    def bound_value(token):
        if _INF_RE.match(token):
            return None
        return _parse_number(token)

    if len(parts) == 5 and parts[1] == "<=" and parts[3] == "<=":
        idx = var_id(parts[2])
        lowers[idx] = bound_value(parts[0])
        uppers[idx] = bound_value(parts[4])
        return
    if len(parts) == 3 and parts[1] in ("<=", ">=", "="):
        value = bound_value(parts[2])
        idx = var_id(parts[0])
        if parts[1] == "<=":
            uppers[idx] = value
        elif parts[1] == ">=":
            lowers[idx] = value
        else:
            lowers[idx] = value
            uppers[idx] = value
        return
    raise LpParseError("cannot parse bound line %r" % line)
