"""Mixed-integer programs extended with piecewise-linear transformations.

A model holds variables (integer or continuous, with rational bounds; the
one :class:`Variable` type of :mod:`pwlmip.milp.model`) and constraints of
the form

    sum_i f_i(x_i)  <=  sum_i g_i(x_i) + b

where every left-hand f is convex or linear and every right-hand g is concave
or linear.  A term is either a :class:`~pwlmip.pwl.PwlFunction` or, for a
linear term c * x_i, its coefficient c itself: a constraint stores a number
as it is and a one-piece function with f(0) = 0 as its slope, so only a
function with a breakpoint or a nonzero f(0) stays a function.
``normalize`` brings a model into canonical form: constants are folded into
b, and every function left has f(0) = 0, no breakpoints below 0 and at
least one breakpoint.  :func:`pwlmip.reduction.lower` applies it to
the model it is given, so callers pass their models as written.

Every bound, coefficient and right-hand side is stored in the form
:func:`pwlmip.rationals.exact` gives: an int when it is integral, a Fraction
otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from .milp.model import Variable, VarKind
from .pwl import PwlFunction, Shape
from .rationals import (exact, json_entries, json_format, json_object, parse_field,
                        parse_rational)
from .records import Frozen

FORMAT_NAME = "emip-v1"


def _as_terms(terms):
    """Normalize a {index: function-or-coefficient} mapping into sorted
    pairs; a linear term, a number or a one-piece function with f(0) = 0,
    becomes its coefficient."""
    if isinstance(terms, dict):
        items = terms.items()
    else:
        items = list(terms)
    out = []
    seen = set()
    for idx, term in sorted(items, key=itemgetter(0)):
        if idx in seen:
            raise ValueError("variable %d appears twice on one side" % idx)
        seen.add(idx)
        if not isinstance(term, PwlFunction):
            term = exact(term)
        elif not term.breakpoints and not term.value_at_zero:
            term = term.slopes[0]
        out.append((idx, term))
    return tuple(out)


def term_value(term, x):
    """A term at x: the coefficient times x, or the function's value."""
    if isinstance(term, PwlFunction):
        return term.eval(x)
    return term * x


class EmipConstraint(Frozen):
    """sum of lhs terms <= sum of rhs terms + b.

    Each side is a tuple of (variable index, term) pairs sorted by index.
    A term is a coefficient (an int or Fraction) or a
    :class:`~pwlmip.pwl.PwlFunction` that has a breakpoint or a nonzero
    f(0): the constructor stores a number as it is and a one-piece function
    with f(0) = 0 as its slope.
    """

    __slots__ = _fields = ("lhs", "rhs", "b")

    def __init__(self, lhs: tuple, rhs: tuple, b: int | Fraction = 0):
        object.__setattr__(self, "lhs", _as_terms(lhs))
        object.__setattr__(self, "rhs", _as_terms(rhs))
        object.__setattr__(self, "b", exact(b))

    def holds(self, assignment) -> bool:
        """Exact check of the constraint at a full assignment (index -> value)."""
        lhs = sum(term_value(term, assignment[i]) for i, term in self.lhs)
        rhs = sum(term_value(term, assignment[i]) for i, term in self.rhs)
        return lhs <= rhs + self.b


class Objective(Frozen):
    """``sense`` is "max" or "min"; ``coeffs`` are sorted (index,
    coefficient) pairs."""

    __slots__ = _fields = ("sense", "coeffs")

    def __init__(self, sense: str, coeffs: tuple):
        if sense not in ("max", "min"):
            raise ValueError("objective sense must be 'max' or 'min'")
        object.__setattr__(self, "sense", sense)
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        object.__setattr__(
            self, "coeffs", tuple(sorted((i, exact(c)) for i, c in items))
        )


class EmipModel(Frozen):
    __slots__ = _fields = ("variables", "constraints", "objective")

    def __init__(self, variables: tuple, constraints: tuple,
                 objective: Objective | None = None):
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "constraints", tuple(constraints))
        object.__setattr__(self, "objective", objective)

    # -- serialization -----------------------------------------------------

    def to_json(self):
        variables = [
            {
                "name": v.name,
                "kind": v.kind.value,
                "lower": str(v.lower),
                "upper": None if v.upper is None else str(v.upper),
            }
            for v in self.variables
        ]
        constraints = []
        for cons in self.constraints:
            constraints.append(
                {
                    "lhs": {
                        self.variables[i].name: _term_to_json(term)
                        for i, term in cons.lhs
                    },
                    "rhs": {
                        self.variables[i].name: _term_to_json(term)
                        for i, term in cons.rhs
                    },
                    "b": str(cons.b),
                }
            )
        obj = None
        if self.objective is not None:
            obj = {
                "sense": self.objective.sense,
                "coeffs": {
                    self.variables[i].name: str(c)
                    for i, c in self.objective.coeffs
                },
            }
        return {
            "format": FORMAT_NAME,
            "variables": variables,
            "constraints": constraints,
            "objective": obj,
        }

    @classmethod
    def from_json(cls, obj):
        json_format(obj, FORMAT_NAME, "model")
        variables = []
        for k, v in enumerate(json_entries(obj, "variables", "variable")):
            where = "variable %d " % k
            if not isinstance(v.get("name"), str) or not v["name"]:
                raise ValueError(where + "name must be a nonempty string")
            variables.append(Variable(
                v["name"],
                parse_field(where + "kind", VarKind, v.get("kind", "integer")),
                parse_field(where + "lower", parse_rational, v.get("lower", 0)),
                None if v.get("upper") is None
                else parse_field(where + "upper", parse_rational, v["upper"])))
        index = {}
        for i, v in enumerate(variables):
            if index.setdefault(v.name, i) != i:
                raise ValueError("variable %d: duplicate name %r" % (i, v.name))

        def parse_terms(mapping, where, parse=parse_rational):
            terms = {}
            for name, spec in mapping.items():
                if name not in index:
                    raise ValueError("%s references unknown variable %r" % (where, name))
                terms[index[name]] = parse_field(where, parse, spec)
            return terms

        def parse_fn(spec):
            if isinstance(spec, dict):
                return PwlFunction.from_json(spec)
            return parse_rational(spec)

        constraints = []
        for k, c in enumerate(json_entries(obj, "constraints", "constraint")):
            sides = {}
            for side in ("lhs", "rhs"):
                where = "constraint %d %s" % (k, side)
                sides[side] = parse_terms(json_object(c.get(side), where), where,
                                          parse_fn)
            b = parse_field("constraint %d b" % k, parse_rational, c.get("b", 0))
            constraints.append(EmipConstraint(b=b, **sides))
        objective = None
        if obj.get("objective") is not None:
            o = json_object(obj["objective"], "objective")
            coeffs = json_object(o.get("coeffs"), "objective coeffs")
            objective = Objective(o.get("sense"), parse_terms(coeffs, "objective"))
        return cls(tuple(variables), tuple(constraints), objective)


def _term_to_json(term):
    if isinstance(term, PwlFunction):
        return term.to_json()
    return str(term)


# -- validation -------------------------------------------------------------


def validate(model: EmipModel):
    """Structural checks; returns a list of human-readable violations."""
    problems = []
    names = set()
    for i, v in enumerate(model.variables):
        if v.name in names:
            problems.append("variable %d: duplicate name %r" % (i, v.name))
        names.add(v.name)
        if v.lower is None:
            problems.append("variable %r: no lower bound" % v.name)
        elif v.upper is not None and v.upper < v.lower:
            problems.append(
                "variable %r: empty bound range [%s, %s]"
                % (v.name, v.lower, v.upper)
            )
    n = len(model.variables)
    # One walk over the terms; the lower-bound problems of the transformed
    # variables still come before the constraints' own.
    transformed = set()
    term_problems = []
    for j, cons in enumerate(model.constraints):
        for side, terms, shape in (("left", cons.lhs, Shape.CONVEX),
                                   ("right", cons.rhs, Shape.CONCAVE)):
            for idx, term in terms:
                if not (0 <= idx < n):
                    term_problems.append("constraint %d: unknown variable "
                                         "index %d" % (j, idx))
                elif isinstance(term, PwlFunction) and not term.is_linear:
                    transformed.add(idx)
                    if term.shape is not shape:
                        term_problems.append(
                            "constraint %d: %s-hand transformation on %r must "
                            "be %s or linear"
                            % (j, side, model.variables[idx].name, shape.value)
                        )
    for idx in sorted(transformed):
        if (model.variables[idx].lower or 0) < 0:
            problems.append(
                "variable %r: transformed variables need a nonnegative lower "
                "bound (canonical form)" % model.variables[idx].name
            )
    problems += term_problems
    if model.objective is not None:
        for idx, _ in model.objective.coeffs:
            if not (0 <= idx < n):
                problems.append("objective: unknown variable index %d" % idx)
    return problems


class InvalidModelError(ValueError):
    """Raised when an operation receives a structurally invalid model."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# -- normalization -----------------------------------------------------------


def normalize(model: EmipModel) -> EmipModel:
    """Canonical form: constants in b, and every function term has f(0) = 0,
    no negative breakpoints and at least one breakpoint.

    A function that keeps no breakpoint becomes its slope, a coefficient,
    once its f(0) is in b, and a zero coefficient is dropped.  Only
    constraints change; the variables and the objective are the input's
    own, so a solution of the result is a solution of the input.  A term is
    rebuilt only when it has breakpoints below 0 or f(0) != 0; otherwise the
    result holds the input's own term.  A constraint whose terms all stay,
    none rebuilt and none dropped, keeps its b and is returned as it is:
    the input's own constraint object.
    """
    problems = validate(model)
    if problems:
        raise InvalidModelError(problems)
    constraints = []
    for cons in model.constraints:
        b = cons.b
        new_lhs = {}
        new_rhs = {}
        changed = False
        for side, sign, bucket in ((cons.lhs, -1, new_lhs), (cons.rhs, +1, new_rhs)):
            for idx, term in side:
                new = term
                if isinstance(term, PwlFunction):
                    # Without breakpoints below 0, f(0) is value_at_zero exactly.
                    new = term.drop_negative_breakpoints()
                    b += sign * new.value_at_zero
                    if not new.breakpoints:
                        new = new.slopes[0]
                    elif new.value_at_zero:
                        new = new.with_value_at_zero(0)
                if not isinstance(new, PwlFunction) and new == 0:
                    changed = True
                    continue
                changed = changed or new is not term
                bucket[idx] = new
        if changed:
            cons = EmipConstraint(lhs=new_lhs, rhs=new_rhs, b=b)
        constraints.append(cons)
    return EmipModel(model.variables, tuple(constraints), model.objective)
