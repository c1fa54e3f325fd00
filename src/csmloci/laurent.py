"""Exact fractions of Laurent polynomials, as frozen records.

Numerator and denominator are Polys over one variable tuple (negative
exponents allowed), and the denominator is never zero.  A fraction is built
once, already reduced by its producer (ktheory._over_pairs divides out the
pair factors it shares with P_n), and never changes afterwards: num and den
are read-only Polys, and assigning either raises AttributeError, so a cached
fraction is safe to hand out.  Arithmetic and a canonical form live with the
reference routes (oracles.CanonicalFraction).
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly


class LaurentFraction:
    """An exact fraction num/den of Laurent polynomials over a shared ring,
    immutable: num and den are read-only and cannot be reassigned."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = Poly.const(num.vars, 1)
        if num.vars != den.vars:
            raise ValueError("numerator and denominator on different variables")
        if den.is_zero():
            raise ZeroDivisionError("structurally zero denominator")
        object.__setattr__(self, "num", num.read_only())
        object.__setattr__(self, "den", den.read_only())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"LaurentFraction is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    @property
    def vars(self):
        return self.num.vars

    def eval(self, point):
        d = self.den.eval(point)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {point}")
        return Fraction(self.num.eval(point)) / d
