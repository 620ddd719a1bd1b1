"""Mixed-integer programs extended with piecewise-linear transformations.

A model holds variables (integer or continuous, with rational bounds) and
constraints of the form

    sum_i f_i(x_i)  <=  sum_i g_i(x_i) + b

where every left-hand f is convex or linear and every right-hand g is concave
or linear.  ``normalize`` brings a model into canonical form: every
transformation has f(0) = 0 and no breakpoints below 0, and constants are
folded into b.  :func:`pwlmip.reduction.lower` applies it to the model it is
given, so callers pass their models as written.

Every bound, coefficient and right-hand side is stored in the form
:func:`pwlmip.rationals.exact` gives: an int when it is integral, a Fraction
otherwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .pwl import PwlFunction, Shape
from .rationals import exact, parse_rational

FORMAT_NAME = "emip-v1"


class VarKind(enum.Enum):
    INTEGER = "integer"
    CONTINUOUS = "continuous"


@dataclass(frozen=True)
class Variable:
    name: str
    kind: VarKind = VarKind.INTEGER
    lower: int | Fraction = 0
    upper: int | Fraction | None = None

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ValueError("variable needs a nonempty string name")
        object.__setattr__(self, "lower", exact(self.lower))
        if self.upper is not None:
            object.__setattr__(self, "upper", exact(self.upper))


def _as_terms(terms):
    """Normalize a {index: function-or-coefficient} mapping into sorted pairs."""
    if isinstance(terms, dict):
        items = terms.items()
    else:
        items = list(terms)
    out = []
    seen = set()
    for idx, fn in sorted(items):
        if idx in seen:
            raise ValueError("variable %d appears twice on one side" % idx)
        seen.add(idx)
        if not isinstance(fn, PwlFunction):
            fn = PwlFunction.linear(fn)
        out.append((idx, fn))
    return tuple(out)


@dataclass(frozen=True)
class EmipConstraint:
    """sum of lhs terms <= sum of rhs terms + b."""

    lhs: tuple
    rhs: tuple
    b: int | Fraction = 0

    def __post_init__(self):
        object.__setattr__(self, "lhs", _as_terms(self.lhs))
        object.__setattr__(self, "rhs", _as_terms(self.rhs))
        object.__setattr__(self, "b", exact(self.b))

    def holds(self, assignment) -> bool:
        """Exact check of the constraint at a full assignment (index -> value)."""
        lhs = sum(fn.eval(assignment[i]) for i, fn in self.lhs)
        rhs = sum(fn.eval(assignment[i]) for i, fn in self.rhs)
        return lhs <= rhs + self.b


@dataclass(frozen=True)
class Objective:
    sense: str  # "max" or "min"
    coeffs: tuple  # sorted (index, coefficient) pairs

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise ValueError("objective sense must be 'max' or 'min'")
        items = self.coeffs.items() if isinstance(self.coeffs, dict) else self.coeffs
        object.__setattr__(
            self, "coeffs", tuple(sorted((i, exact(c)) for i, c in items))
        )


@dataclass(frozen=True)
class EmipModel:
    variables: tuple
    constraints: tuple
    objective: Objective | None = None

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "constraints", tuple(self.constraints))

    def var_index(self, name: str) -> int:
        for i, v in enumerate(self.variables):
            if v.name == name:
                return i
        raise KeyError(name)

    def nonlinear_var_indices(self):
        """Indices of variables carrying a transformation with >= 2 pieces."""
        out = set()
        for cons in self.constraints:
            for side in (cons.lhs, cons.rhs):
                for idx, fn in side:
                    if not fn.is_linear:
                        out.add(idx)
        return out

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
                        self.variables[i].name: _term_to_json(fn)
                        for i, fn in cons.lhs
                    },
                    "rhs": {
                        self.variables[i].name: _term_to_json(fn)
                        for i, fn in cons.rhs
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
        if not isinstance(obj, dict):
            raise ValueError("model must be a JSON object")
        fmt = obj.get("format")
        if fmt != FORMAT_NAME:
            raise ValueError("unsupported model format %r (expected %r)" % (fmt, FORMAT_NAME))
        variables = []
        for v in json_entries(obj, "variables", "variable"):
            variables.append(
                Variable(
                    name=v["name"],
                    kind=VarKind(v.get("kind", "integer")),
                    lower=parse_rational(v.get("lower", 0)),
                    upper=None if v.get("upper") is None else parse_rational(v["upper"]),
                )
            )
        index = {v.name: i for i, v in enumerate(variables)}
        if len(index) != len(variables):
            raise ValueError("duplicate variable names")

        def parse_terms(mapping, where, parse=parse_rational):
            terms = {}
            for name, spec in mapping.items():
                if name not in index:
                    raise ValueError("%s references unknown variable %r" % (where, name))
                terms[index[name]] = parse(spec)
            return terms

        def parse_fn(spec):
            if isinstance(spec, dict):
                return PwlFunction.from_json(spec)
            return PwlFunction.linear(parse_rational(spec))

        constraints = []
        for k, c in enumerate(json_entries(obj, "constraints", "constraint")):
            constraints.append(
                EmipConstraint(
                    lhs=parse_terms(_json_object(c.get("lhs"), "constraint %d lhs" % k),
                                    "constraint", parse_fn),
                    rhs=parse_terms(_json_object(c.get("rhs"), "constraint %d rhs" % k),
                                    "constraint", parse_fn),
                    b=parse_rational(c.get("b", 0)),
                )
            )
        objective = None
        if obj.get("objective") is not None:
            o = _json_object(obj["objective"], "objective")
            coeffs = _json_object(o.get("coeffs"), "objective coeffs")
            objective = Objective(o["sense"], parse_terms(coeffs, "objective"))
        return cls(tuple(variables), tuple(constraints), objective)


def _json_object(value, where):
    """``value``, a JSON object, null read as empty; else an input error
    that names ``where``."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError("%s must be a JSON object" % where)
    return value


def json_entries(obj, key, entry):
    """The JSON objects listed under ``key``, read as :func:`_json_object`
    reads each one; absent or null is an empty list."""
    items = () if obj.get(key) is None else obj[key]
    if not isinstance(items, (list, tuple)):
        raise ValueError("%s must be a JSON array" % key)
    return [_json_object(item, "%s %d" % (entry, k)) for k, item in enumerate(items)]


def _term_to_json(fn: PwlFunction):
    if fn.is_linear and fn.value_at_zero == 0:
        return str(fn.slopes[0])
    return fn.to_json()


# -- validation -------------------------------------------------------------


def validate(model: EmipModel):
    """Structural checks; returns a list of human-readable violations."""
    problems = []
    names = set()
    for i, v in enumerate(model.variables):
        if v.name in names:
            problems.append("variable %d: duplicate name %r" % (i, v.name))
        names.add(v.name)
        if v.upper is not None and v.upper < v.lower:
            problems.append(
                "variable %r: empty bound range [%s, %s]"
                % (v.name, v.lower, v.upper)
            )
    n = len(model.variables)
    transformed = model.nonlinear_var_indices()
    for idx in sorted(transformed):
        if 0 <= idx < n and model.variables[idx].lower < 0:
            problems.append(
                "variable %r: transformed variables need a nonnegative lower "
                "bound (canonical form)" % model.variables[idx].name
            )
    for j, cons in enumerate(model.constraints):
        for idx, fn in cons.lhs:
            if not (0 <= idx < n):
                problems.append("constraint %d: unknown variable index %d" % (j, idx))
            elif not fn.is_linear and fn.shape is not Shape.CONVEX:
                problems.append(
                    "constraint %d: left-hand transformation on %r must be "
                    "convex or linear" % (j, model.variables[idx].name)
                )
        for idx, fn in cons.rhs:
            if not (0 <= idx < n):
                problems.append("constraint %d: unknown variable index %d" % (j, idx))
            elif not fn.is_linear and fn.shape is not Shape.CONCAVE:
                problems.append(
                    "constraint %d: right-hand transformation on %r must be "
                    "concave or linear" % (j, model.variables[idx].name)
                )
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


def _require_valid(model: EmipModel):
    problems = validate(model)
    if problems:
        raise InvalidModelError(problems)


# -- normalization -----------------------------------------------------------


def normalize(model: EmipModel) -> EmipModel:
    """Canonical form: f(0)=0, no negative breakpoints, constants in b.

    Only constraints change; the variables and the objective are the input's
    own, so a solution of the result is a solution of the input.  A term is
    rebuilt only when it has breakpoints below 0 or f(0) != 0; otherwise the
    result holds the input's own function object.
    """
    _require_valid(model)
    constraints = []
    for cons in model.constraints:
        b = cons.b
        new_lhs = {}
        new_rhs = {}
        for side, sign, bucket in ((cons.lhs, -1, new_lhs), (cons.rhs, +1, new_rhs)):
            for idx, fn in side:
                # Without breakpoints below 0, f(0) is value_at_zero exactly.
                fn = fn.drop_negative_breakpoints()
                if fn.value_at_zero:
                    b += sign * fn.value_at_zero
                    fn = fn.with_value_at_zero(0)
                if not (fn.is_linear and fn.slopes[0] == 0):
                    bucket[idx] = fn
        constraints.append(EmipConstraint(lhs=new_lhs, rhs=new_rhs, b=b))
    return EmipModel(model.variables, tuple(constraints), model.objective)
