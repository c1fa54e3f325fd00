"""Reduced fractions of Laurent polynomials.

Numerator and denominator are Polys (negative exponents allowed).  The
canonical form shifts both by the minimal exponent of each variable, clears
coefficient denominators, divides out the integer content, and makes the
graded-lex leading coefficient of the denominator positive.  It is computed
before the fraction is built, and a fraction never changes afterwards: num
and den are read-only Polys, and assigning either raises AttributeError, so
a cached fraction is safe to hand out.  Cancellation of
polynomial factors is done against explicitly supplied factor candidates
(this domain never needs general multivariate factorization).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .poly import ExactDivisionError, Poly


def _min_exponents(*polys):
    nvars = len(polys[0].vars)
    mins = [None] * nvars
    for p in polys:
        for e in p.terms:
            for i, x in enumerate(e):
                if mins[i] is None or x < mins[i]:
                    mins[i] = x
    return [0 if m is None else m for m in mins]


def _shift(poly, offsets):
    if all(o == 0 for o in offsets):
        return poly
    return Poly(poly.vars,
                {tuple(x - o for x, o in zip(e, offsets)): c
                 for e, c in poly.terms.items()}, _clean=False)


def _content_scale(*polys):
    """Common scalar making all coefficients integers with overall content 1."""
    denom_lcm = 1
    for p in polys:
        for c in p.terms.values():
            if isinstance(c, Fraction):
                denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    nums = []
    for p in polys:
        for c in p.terms.values():
            nums.append(abs(int(c * denom_lcm)))
    g = 0
    for v in nums:
        g = gcd(g, v)
    return Fraction(denom_lcm, g if g else 1)


def _canonical(num, den):
    """(num, den) shifted by the minimal exponents, with integer coprime
    coefficients and a positive graded-lex leading coefficient of den."""
    if num.is_zero():
        return Poly.zero(num.vars), Poly.const(num.vars, 1)
    offsets = _min_exponents(num, den)
    num, den = _shift(num, offsets), _shift(den, offsets)
    scale = _content_scale(num, den)
    if den.lead_term()[1] < 0:
        scale = -scale
    if scale != 1:
        num, den = num.scale(scale), den.scale(scale)
    return num, den


class LaurentFraction:
    """An exact fraction num/den of Laurent polynomials over a shared ring,
    immutable: num and den are read-only and cannot be reassigned."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, *, canonical=False):
        if den is None:
            den = Poly.const(num.vars, 1)
        elif isinstance(den, (int, Fraction)):
            den = Poly.const(num.vars, den)
        if num.vars != den.vars:
            raise ValueError("numerator and denominator on different variables")
        if den.is_zero():
            raise ZeroDivisionError("structurally zero denominator")
        if not canonical:
            num, den = _canonical(num, den)
        object.__setattr__(self, "num", num.read_only())
        object.__setattr__(self, "den", den.read_only())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"LaurentFraction is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    @property
    def vars(self):
        return self.num.vars

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if self.den == other.den:
            return LaurentFraction(self.num + other.num, self.den)
        return LaurentFraction(self.num * other.den + other.num * self.den,
                               self.den * other.den)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        return LaurentFraction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, LaurentFraction):
            return other
        if isinstance(other, Poly):
            return LaurentFraction(other, None, canonical=True)
        return LaurentFraction(Poly.const(self.vars, other), None, canonical=True)

    def __eq__(self, other):
        if not isinstance(other, (LaurentFraction, Poly, int, Fraction)):
            return NotImplemented
        other = self._coerce(other)
        return self.num * other.den == other.num * self.den

    def __repr__(self):
        if self.den == Poly.const(self.vars, 1):
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"

    # -- reduction and evaluation ---------------------------------------

    def cancel(self, factors):
        """Divide out every supplied factor common to num and den (repeatedly)."""
        num, den = self.num, self.den
        for f in factors:
            while True:
                try:
                    n2 = num.exact_divide(f)
                    d2 = den.exact_divide(f)
                except ExactDivisionError:
                    break
                num, den = n2, d2
        return LaurentFraction(num, den)

    def eval(self, point):
        d = self.den.eval(point)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {point}")
        return Fraction(self.num.eval(point)) / d

    def substitute(self, images, target_vars=None):
        num = self.num.substitute(images, target_vars)
        den = self.den.substitute(images, target_vars)
        return LaurentFraction(num, den)
