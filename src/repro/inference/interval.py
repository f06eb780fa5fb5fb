"""Exact rational intervals for guaranteed inference bounds.

Path enumeration (:mod:`repro.inference.paths`) resolves only a finite
prefix of a sampler's behaviour, so every probability it reports is an
*interval*: the mass of resolved paths is a certain lower bound, and the
unresolved frontier mass bounds the slack above it.  All endpoints are
``Fraction``s -- the bounds are mathematically sound, not floating-point
estimates.

Only the operations needed by posterior-bound arithmetic are provided;
this is deliberately not a general interval-arithmetic library.
"""

from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


class Interval:
    """A closed interval ``[lo, hi]`` with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Rational, hi: Rational):
        lo = Fraction(lo)
        hi = Fraction(hi)
        if lo > hi:
            raise ValueError("empty interval: lo=%s > hi=%s" % (lo, hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, *_):
        raise AttributeError("Interval is immutable")

    @classmethod
    def point(cls, value: Rational) -> "Interval":
        """The degenerate interval ``[value, value]``."""
        return cls(value, value)

    @property
    def width(self) -> Fraction:
        """``hi - lo``: the uncertainty carried by this bound."""
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def is_point(self) -> bool:
        """True when the bound is exact (zero width)."""
        return self.lo == self.hi

    def contains(self, value: Rational) -> bool:
        """Whether ``lo <= value <= hi``."""
        return self.lo <= Fraction(value) <= self.hi

    def contains_float(self, value: float, slack: float = 0.0) -> bool:
        """Float-friendly membership test with additive ``slack``
        (for comparing against closed forms computed in floating point)."""
        return float(self.lo) - slack <= value <= float(self.hi) + slack

    def intersects(self, other: "Interval") -> bool:
        """Whether the two intervals share at least one point."""
        return self.lo <= other.hi and other.lo <= self.hi

    def outward(self, bits: int) -> "Interval":
        """Round outward to the dyadic grid ``2**-bits``: the lower
        endpoint down, the upper endpoint up.

        Rounding *outward* is the sound direction for certified bounds:
        the result contains the original interval, so any value the
        original bound covers is still covered.  The fixpoint engine
        (:mod:`repro.inference.fixpoint`) uses the same idea one level
        lower -- its mass ledger floors every transfer onto the grid --
        and the oracle cache uses this method to serialize bounds with
        denominators capped at ``2**bits`` without losing soundness.
        """
        if bits < 0:
            raise ValueError("bits must be nonnegative")
        grid = 1 << bits
        lo_scaled = self.lo * grid
        hi_scaled = self.hi * grid
        lo = lo_scaled.numerator // lo_scaled.denominator
        hi = -((-hi_scaled.numerator) // hi_scaled.denominator)
        return Interval(Fraction(lo, grid), Fraction(hi, grid))

    def __add__(self, other: "Interval") -> "Interval":
        if not isinstance(other, Interval):
            return NotImplemented
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def scale(self, factor: Rational) -> "Interval":
        """Multiply both endpoints by a nonnegative rational."""
        factor = Fraction(factor)
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        return Interval(self.lo * factor, self.hi * factor)

    def clamp(self, lo: Rational = 0, hi: Rational = 1) -> "Interval":
        """Intersect with ``[lo, hi]`` (posteriors live in [0, 1])."""
        return Interval(
            max(Fraction(lo), min(self.lo, Fraction(hi))),
            min(Fraction(hi), max(self.hi, Fraction(lo))),
        )

    def __eq__(self, other):
        return (
            isinstance(other, Interval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self):
        return hash(("Interval", self.lo, self.hi))

    def __repr__(self):
        if self.is_point():
            return "Interval.point(%s)" % (self.lo,)
        return "Interval(%s, %s)" % (self.lo, self.hi)


def divide_bounds(
    numerator: Interval, denominator: Interval
) -> Interval:
    """Bounds on ``n / d`` for ``n in numerator``, ``d in denominator``,
    assuming ``0 <= n <= d`` pointwise (the posterior-probability case:
    numerator mass is part of the denominator mass).

    The quotient is monotone increasing in ``n`` and decreasing in ``d``,
    so the extremes are ``n.lo / d.hi`` and ``n.hi / d.lo``; the result is
    clamped to [0, 1] which is sound precisely because of the containment
    assumption.
    """
    if denominator.hi == 0:
        raise ZeroDivisionError("denominator interval is {0}")
    lo = numerator.lo / denominator.hi
    hi = Fraction(1) if denominator.lo == 0 else numerator.hi / denominator.lo
    return Interval(lo, min(hi, Fraction(1)))
