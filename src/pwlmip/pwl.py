"""Piecewise-linear convex/concave functions over exact rationals.

A function is stored by its breakpoints and per-piece slopes.  With
breakpoints rho_1 < ... < rho_L the domain splits into the L+1 pieces
(-inf, rho_1], (rho_1, rho_2], ..., (rho_L, +inf); slope ``slopes[k]``
applies on piece k.  Convexity means strictly increasing slopes (after
merging equal-slope neighbours), concavity strictly decreasing; a single
piece is linear and counts as either.

Evaluation uses the closed form

    f(x) = f(0) + x*slopes[0] + sum_k max(0, x - rho_k) * (slopes[k] - slopes[k-1])

with a re-anchoring term ``-max(0, -rho_k)*(slopes[k]-slopes[k-1])`` so that
f(0) equals ``value_at_zero`` even when breakpoints are negative; for the
nonnegative-breakpoint functions produced by normalization the two forms are
identical.

Values follow :func:`pwlmip.rationals.exact`: ``value_at_zero``, every
breakpoint and every slope is an int when it is integral and a Fraction
otherwise, and so is what :meth:`PwlFunction.eval` returns.  A function
built from ints equals and hashes like one built from equal Fractions.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .rationals import exact, json_array, parse_rational
from .records import Frozen


class Shape(enum.Enum):
    CONVEX = "convex"
    CONCAVE = "concave"


class PwlFunction(Frozen):
    """An exact piecewise-linear function in canonical (merged) form."""

    __slots__ = _fields = ("shape", "value_at_zero", "breakpoints", "slopes")

    def __init__(self, shape: Shape, value_at_zero: int | Fraction,
                 breakpoints: tuple, slopes: tuple):
        value_at_zero = exact(value_at_zero)
        bps = tuple(map(exact, breakpoints))
        slopes = tuple(map(exact, slopes))
        if len(slopes) != len(bps) + 1:
            raise ValueError(
                "need exactly one slope per piece: %d breakpoints require %d "
                "slopes, got %d" % (len(bps), len(bps) + 1, len(slopes))
            )
        if bps:  # one piece has nothing to order, merge or shape-check
            if any(a >= b for a, b in zip(bps, bps[1:])):
                raise ValueError(
                    "breakpoints must be strictly ascending: %s" % (bps,)
                )
            bps, slopes = _merge_equal_slopes(bps, slopes)
            if shape is Shape.CONVEX:
                if any(a > b for a, b in zip(slopes, slopes[1:])):
                    raise ValueError("convex function needs nondecreasing slopes")
            else:
                if any(a < b for a, b in zip(slopes, slopes[1:])):
                    raise ValueError("concave function needs nonincreasing slopes")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "value_at_zero", value_at_zero)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "slopes", slopes)

    # -- constructors ------------------------------------------------------

    @classmethod
    def linear(cls, slope, value_at_zero=0, shape=Shape.CONVEX):
        """A one-piece (linear) function; linear counts as convex and concave."""
        return cls(shape, value_at_zero, (), (slope,))

    @classmethod
    def from_sorted_weights(cls, weights):
        """Convex cost of taking k items: prefix sums of ascending weights.

        f(k) = sum of the k smallest weights; f(0) = 0.  The empty collection
        gives the constant zero function.
        """
        ws = sorted(map(exact, weights))
        if ws and ws[0] < 0:
            raise ValueError("weights must be nonnegative")
        return cls(Shape.CONVEX, 0, range(1, len(ws)), ws or (0,))

    @classmethod
    def from_sorted_multiplicities(cls, multiplicities):
        """Concave yield of taking k items: prefix sums of descending values.

        f(k) = sum of the k largest multiplicities; f(0) = 0.
        """
        ts = sorted(map(exact, multiplicities), reverse=True)
        if ts and ts[-1] < 0:
            raise ValueError("multiplicities must be nonnegative")
        return cls(Shape.CONCAVE, 0, range(1, len(ts)), ts or (0,))

    # -- basic queries -----------------------------------------------------

    @property
    def is_linear(self) -> bool:
        return len(self.slopes) == 1

    def piece_index(self, x) -> int:
        """Index of the piece containing x (pieces are left-open, right-closed)."""
        k = 0
        for bp in self.breakpoints:
            if bp < x:
                k += 1
            else:
                break
        return k

    def eval(self, x):
        x = exact(x)
        total = self.value_at_zero + x * self.slopes[0]
        for bp, lo, hi in zip(self.breakpoints, self.slopes, self.slopes[1:]):
            step = hi - lo
            if x > bp:
                total += (x - bp) * step
            if bp < 0:
                total -= (-bp) * step
        return exact(total)

    def range_on(self, lower, upper):
        """Exact (min, max) of the function over [lower, upper].

        ``upper`` may be None (unbounded above); ``lower`` must be finite.
        Returns None for an infinite bound.  Extrema of a piecewise-linear
        function on a box lie at endpoints or breakpoints, so both values
        come from finitely many evaluations.
        """
        lower = exact(lower)
        xs = [lower]
        for bp in self.breakpoints:
            if bp > lower and (upper is None or bp < upper):
                xs.append(bp)
        if upper is not None:
            upper = exact(upper)
            if upper < lower:
                raise ValueError("empty interval")
            xs.append(upper)
        vals = [self.eval(x) for x in xs]
        lo = None if (upper is None and self.slopes[-1] < 0) else min(vals)
        hi = None if (upper is None and self.slopes[-1] > 0) else max(vals)
        return lo, hi

    def with_value_at_zero(self, value) -> "PwlFunction":
        return PwlFunction(self.shape, value, self.breakpoints, self.slopes)

    def drop_negative_breakpoints(self) -> "PwlFunction":
        """Merge pieces lying entirely left of 0 into the zeroth piece.

        The result agrees with the original for all x >= min(0, first kept
        breakpoint) and keeps value_at_zero; only the shape left of 0 changes.
        """
        k = 0
        while k < len(self.breakpoints) and self.breakpoints[k] < 0:
            k += 1
        if k == 0:
            return self
        return PwlFunction(
            self.shape, self.value_at_zero, self.breakpoints[k:], self.slopes[k:]
        )

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {
            "shape": self.shape.value,
            "value_at_zero": str(self.value_at_zero),
            "breakpoints": [str(b) for b in self.breakpoints],
            "slopes": [str(s) for s in self.slopes],
        }

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError("piecewise-linear function must be a JSON object")
        try:
            shape = Shape(obj["shape"])
        except (KeyError, ValueError) as exc:
            raise ValueError("shape must be 'convex' or 'concave'") from exc
        return cls(
            shape,
            parse_rational(obj.get("value_at_zero", 0)),
            tuple(map(parse_rational, json_array(obj, "breakpoints"))),
            tuple(map(parse_rational, json_array(obj, "slopes"))),
        )


def prefix_sum_term(values, shape):
    """The constraint term of taking k items worth ``values``: the prefix
    sums of :meth:`PwlFunction.from_sorted_weights` for a convex cost, of
    :meth:`PwlFunction.from_sorted_multiplicities` for a concave yield.

    When the values are all equal, one value included, those sums are
    linear, and the term is that value as a coefficient, with no function
    built.
    """
    first = exact(values[0])
    if first >= 0 and all(v == first for v in values):
        return first
    if shape is Shape.CONVEX:
        return PwlFunction.from_sorted_weights(values)
    return PwlFunction.from_sorted_multiplicities(values)


def _merge_equal_slopes(bps, slopes):
    """Drop breakpoints between pieces of equal slope (canonical form)."""
    keep = [k for k in range(len(bps)) if slopes[k + 1] != slopes[k]]
    return tuple(bps[k] for k in keep), (slopes[0], *(slopes[k + 1] for k in keep))
