"""Exact sparse multivariate polynomials.

A polynomial carries an ordered tuple of variable names and a dict mapping
exponent tuples to nonzero rational coefficients.  Coefficients are Python
ints whenever possible and fractions.Fraction otherwise; both are exact and
mix freely.  The zero polynomial has an empty term dict.

Negative exponents are tolerated by the arithmetic (the Laurent layer relies
on this); division, which genuinely needs non-negative exponents, is only
ever called on ordinary polynomials.

The term order used for leading terms is graded lexicographic: compare total
degree first, then the exponent tuple lexicographically (first variable most
significant).
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import lcm
from operator import add as _add
from types import MappingProxyType


class ExactDivisionError(ArithmeticError):
    """Raised when a polynomial division leaves a nonzero remainder."""


def _norm(c):
    """Collapse integer-valued Fractions to int; keep everything exact."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def exact_int(value, what):
    """value as an int; raises ExactDivisionError unless it is whole."""
    q = Fraction(value)
    if q.denominator != 1:
        raise ExactDivisionError(f"{what} is not an integer: {q}")
    return q.numerator


def _grlex_key(exps):
    return (sum(exps), exps)


def _check_divides(e, dlead):
    """The exponents of the monomial quotient e / dlead; raises
    ExactDivisionError if dlead does not divide e."""
    qe = tuple(map(int.__sub__, e, dlead))
    if any(x < 0 for x in qe):
        raise ExactDivisionError(f"nonzero remainder: term {e} not divisible by lead {dlead}")
    return qe


class Poly:
    """Sparse exact polynomial in a fixed ordered set of variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None, *, _clean=True):
        self.vars = tuple(variables)
        if terms is None:
            terms = {}
        if _clean:
            terms = {e: _norm(c) for e, c in terms.items() if c != 0}
        self.terms = terms

    def read_only(self):
        """This polynomial as a _ReadOnlyPoly, for cached returns."""
        return self if isinstance(self, _ReadOnlyPoly) else _ReadOnlyPoly(self)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables, {}, _clean=False)

    @classmethod
    def const(cls, variables, c):
        variables = tuple(variables)
        c = _norm(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
        if c == 0:
            return cls(variables, {}, _clean=False)
        return cls(variables, {(0,) * len(variables): c}, _clean=False)

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        e = [0] * len(variables)
        e[variables.index(name)] = 1
        return cls(variables, {tuple(e): 1}, _clean=False)

    @classmethod
    def linear(cls, variables, const=0, **coeffs):
        """Build const + sum(coeff * var) from keyword arguments."""
        variables = tuple(variables)
        terms = {}
        if const:
            terms[(0,) * len(variables)] = const
        for name, c in coeffs.items():
            if c == 0:
                continue
            e = [0] * len(variables)
            e[variables.index(name)] = 1
            terms[tuple(e)] = c
        return cls(variables, terms, _clean=False)

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        """Max total degree, or -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), 0)

    # -- ring operations ----------------------------------------------

    def _check_vars(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable sets differ: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.vars, other)
        self._check_vars(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = _norm(s)
            elif e in out:
                del out[e]
        return Poly(self.vars, out, _clean=False)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.terms.items()}, _clean=False)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.vars, other)
        return self + (-other)

    def scale(self, c):
        c = _norm(c)
        if c == 0:
            return Poly.zero(self.vars)
        if c == 1:
            return self
        return Poly(self.vars, {e: _norm(k * c) for e, k in self.terms.items()},
                    _clean=False)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_vars(other)
        return Poly(self.vars, _mul_dict(self.terms, other.terms), _clean=False)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction)):
                return self.terms == Poly.const(self.vars, other).terms
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    # -- division -----------------------------------------------------

    def exact_divide(self, den):
        """Exact quotient self/den; raises ExactDivisionError on remainder.

        Standard graded-lex reduction.  If the division is exact, the leading
        term of every partial remainder is divisible by the leading term of
        the divisor, so a failed monomial division aborts immediately.
        """
        if isinstance(den, (int, Fraction)):
            if den == 0:
                raise ZeroDivisionError("division by zero")
            return self.scale(Fraction(1, 1) / den)
        self._check_vars(den)
        if den.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if not self.terms:
            return Poly.zero(self.vars)
        dlead = max(den.terms, key=_grlex_key)
        _check_divides(max(self.terms, key=_grlex_key), dlead)
        dcoeff = den.terms[dlead]
        dtail = [(e, c) for e, c in den.terms.items() if e != dlead]

        # Max-heap on graded-lex via negated keys; stale entries are skipped.
        work = dict(self.terms)
        heap = [(-sum(e), tuple(-x for x in e)) for e in work]
        heapq.heapify(heap)
        quo = {}
        while heap:
            nd, ne = heapq.heappop(heap)
            e = tuple(-x for x in ne)
            c = work.get(e)
            if c is None:
                continue
            del work[e]
            qe = _check_divides(e, dlead)
            qc = c if dcoeff == 1 else _norm(Fraction(c) / dcoeff)
            quo[qe] = qc
            for te, tc in dtail:
                ke = tuple(map(_add, qe, te))
                prev = work.get(ke)
                if prev is None:
                    work[ke] = _norm(-qc * tc)
                    heapq.heappush(heap, (-sum(ke), tuple(-x for x in ke)))
                else:
                    s = prev - qc * tc
                    if s:
                        work[ke] = _norm(s)
                    else:
                        del work[ke]
        return Poly(self.vars, quo, _clean=False)

    # -- substitution and evaluation ----------------------------------

    def used_vars(self):
        used = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used.add(self.vars[i])
        return used

    def substitute(self, images, target_vars=None):
        """Ring morphism sending each variable to a polynomial.

        `images` maps variable names to Polys over a common variable set
        (or to int/Fraction constants).  Every variable actually appearing
        in self must be mapped, and self must have no negative exponent.
        """
        if target_vars is None:
            for img in images.values():
                if isinstance(img, Poly):
                    target_vars = img.vars
                    break
            else:
                target_vars = self.vars
        target_vars = tuple(target_vars)
        if not images.keys() >= set(self.vars):
            missing = self.used_vars() - images.keys()
            if missing:
                raise ValueError(f"unmapped variables in substitution: {sorted(missing)}")

        imgs = {}
        for name, img in images.items():
            if not isinstance(img, Poly):
                img = Poly.const(target_vars, img)
            elif img.vars != target_vars:
                raise ValueError("substitution images live on different variable sets")
            imgs[name] = img

        # each term's image is c times a product of cached powers of images,
        # added into one dict over the common denominator of the c
        one = {(0,) * len(target_vars): 1}
        powers = {name: [one] for name in imgs}  # name -> term dicts of img^0, img^1, ...
        terms, den = _over_common_denominator(self.terms)
        out = {}
        for e, c in terms.items():
            term = one
            for name, x in zip(self.vars, e):
                if x:
                    if x < 0:
                        raise ValueError(f"substitution into a negative power of {name}")
                    cache = powers[name]
                    while len(cache) <= x:
                        cache.append(_mul_dict(cache[-1], imgs[name].terms))
                    term = cache[x] if term is one else _mul_dict(term, cache[x])
            for te, tc in term.items():
                out[te] = out.get(te, 0) + c * tc
        return Poly(target_vars, {te: Fraction(tc, den) for te, tc in out.items()}
                    if den != 1 else out)

    def eval(self, point):
        """Exact value at a point given as {name: rational}."""
        vals = [point[name] for name in self.vars]
        pow_cache = [dict() for _ in vals]
        total = 0
        for e, c in self.terms.items():
            term = c
            for i, x in enumerate(e):
                if not x:
                    continue
                cache = pow_cache[i]
                p = cache.get(x)
                if p is None:
                    p = vals[i] ** x
                    cache[x] = p
                term = term * p
            total += term
        return _norm(total)


class _ReadOnlyPoly(Poly):
    """A Poly over a read-only view of its terms that cannot be rebound."""

    __slots__ = ()

    def __init__(self, poly):
        object.__setattr__(self, "vars", poly.vars)
        object.__setattr__(self, "terms", MappingProxyType(poly.terms))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"read-only Poly: cannot change {name!r}")

    __delattr__ = __setattr__


# -- raw dict kernels (hot paths) --------------------------------------

def _mul_dict(a, b):
    """The product of two term dicts.  Each side is written over the common
    denominator of its coefficients, so the products are of ints, and each
    output coefficient is divided once."""
    if not a or not b:
        return {}
    if len(a) < len(b):
        a, b = b, a
    a, den_a = _over_common_denominator(a)
    b, den_b = _over_common_denominator(b)
    out = {}
    get = out.get
    bi = list(b.items())
    for e1, c1 in a.items():
        for e2, c2 in bi:
            ke = tuple(map(_add, e1, e2))
            s = get(ke, 0) + c1 * c2
            if s:
                out[ke] = s
            elif ke in out:
                del out[ke]
    den = den_a * den_b
    return {e: _norm(Fraction(c, den) if den != 1 else c) for e, c in out.items()}


def _over_common_denominator(terms):
    """(terms times q, q) for q the least common denominator of the
    coefficients (ints or Fractions), so the scaled coefficients are ints."""
    q = lcm(*(c.denominator for c in terms.values()))
    if q == 1:
        return terms, 1
    return {e: c.numerator * (q // c.denominator) for e, c in terms.items()}, q


def product(factors, variables=None):
    """Multiply a sequence of Polys.

    Factors are folded in the given order; each step multiplies the running
    product by the next (typically small) factor.
    """
    factors = list(factors)
    if variables is None:
        variables = factors[0].vars
    acc = Poly.const(variables, 1)
    for f in factors:
        acc = acc * f
    return acc
