"""Exact sparse multivariate polynomials and graded-truncated power series.

A polynomial carries an ordered tuple of variable names and a dict mapping
exponent tuples to nonzero rational coefficients.  Coefficients are Python
ints whenever possible and fractions.Fraction otherwise; both are exact and
mix freely.  The zero polynomial has an empty term dict.

Negative exponents are tolerated by the arithmetic (the Laurent layer relies
on this); operations that genuinely need non-negative exponents (division,
series truncation) are only ever called on ordinary polynomials.

The term order used for leading terms is graded lexicographic: compare total
degree first, then the exponent tuple lexicographically (first variable most
significant).
"""

from __future__ import annotations

import heapq
from fractions import Fraction
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

    def constant_term(self):
        nvars = len(self.vars)
        return self.terms.get((0,) * nvars, 0)

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), 0)

    def lead_term(self):
        """Graded-lex leading (exponents, coefficient); None for zero."""
        if not self.terms:
            return None
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def by_degree(self):
        """Split into slices: total degree -> raw term dict."""
        out = {}
        for e, c in self.terms.items():
            out.setdefault(sum(e), {})[e] = c
        return out

    def truncate(self, bound):
        return Poly(self.vars, {e: c for e, c in self.terms.items() if sum(e) <= bound},
                    _clean=False)

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

    def __rsub__(self, other):
        return (-self) + other

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

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def mul_trunc(self, other, bound):
        """Product with monomials of total degree > bound discarded."""
        self._check_vars(other)
        return Poly(self.vars, _mul_dict_trunc(self.terms, other.terms, bound),
                    _clean=False)

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

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self):
        from .emit import poly_text
        return poly_text(self)

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
        in self must be mapped.
        """
        if target_vars is None:
            for img in images.values():
                if isinstance(img, Poly):
                    target_vars = img.vars
                    break
            else:
                target_vars = self.vars
        target_vars = tuple(target_vars)
        missing = self.used_vars() - set(images)
        if missing:
            raise ValueError(f"unmapped variables in substitution: {sorted(missing)}")

        imgs = {}
        for name, img in images.items():
            if not isinstance(img, Poly):
                img = Poly.const(target_vars, img)
            elif img.vars != target_vars:
                raise ValueError("substitution images live on different variable sets")
            imgs[name] = img

        # Fast path when every image is a single term: pure exponent remap.
        if all(len(p.terms) <= 1 for p in imgs.values()):
            nt = len(target_vars)
            remap = {}
            for name, p in imgs.items():
                idx = self.vars.index(name)
                if p.terms:
                    (ie, ic), = p.terms.items()
                else:
                    ie, ic = None, 0
                remap[idx] = (ie, ic)
            out = {}
            for e, c in self.terms.items():
                ne = [0] * nt
                coeff = c
                dead = False
                for i, x in enumerate(e):
                    if not x:
                        continue
                    ie, ic = remap[i]
                    if ie is None:
                        dead = True
                        break
                    coeff = coeff * (ic ** x if ic != 1 else 1)
                    for j, y in enumerate(ie):
                        ne[j] += y * x
                if dead or coeff == 0:
                    continue
                ke = tuple(ne)
                s = out.get(ke, 0) + coeff
                if s:
                    out[ke] = _norm(s)
                elif ke in out:
                    del out[ke]
            return Poly(target_vars, out, _clean=False)

        powers = {name: {0: Poly.const(target_vars, 1)} for name in imgs}
        result = Poly.zero(target_vars)
        for e, c in self.terms.items():
            term = Poly.const(target_vars, c)
            for i, x in enumerate(e):
                if not x:
                    continue
                name = self.vars[i]
                cache = powers[name]
                if x not in cache:
                    p = cache[max(cache)]
                    for _ in range(max(cache), x):
                        p = p * imgs[name]
                        cache[len(cache)] = p
                    p = cache[x]
                term = term * cache[x]
            result = result + term
        return result

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

    def permute_vars(self, perm):
        """Reindex exponents: new exponent i comes from old position perm[i]."""
        out = {}
        for e, c in self.terms.items():
            ke = tuple(e[p] for p in perm)
            s = out.get(ke, 0) + c
            if s:
                out[ke] = s
            elif ke in out:
                del out[ke]
        return Poly(self.vars, out, _clean=False)

    def is_symmetric(self, indices=None):
        """True when invariant under all transpositions of the given variable
        positions (default: all); adjacent transpositions suffice."""
        n = len(self.vars)
        idx = list(range(n)) if indices is None else list(indices)
        for k in range(len(idx) - 1):
            perm = list(range(n))
            perm[idx[k]], perm[idx[k + 1]] = perm[idx[k + 1]], perm[idx[k]]
            if self.permute_vars(perm).terms != self.terms:
                return False
        return True

    def map_vars(self, target_vars, rename=None):
        """Transfer terms onto another variable tuple (by name, or via the
        rename map old->new); useful for embedding a small-ring polynomial."""
        target_vars = tuple(target_vars)
        rename = rename or {}
        pos = []
        for name in self.vars:
            pos.append(target_vars.index(rename.get(name, name)))
        nt = len(target_vars)
        out = {}
        for e, c in self.terms.items():
            ne = [0] * nt
            for i, x in enumerate(e):
                if x:
                    ne[pos[i]] = x
            out[tuple(ne)] = c
        return Poly(target_vars, out, _clean=False)


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
    if not a or not b:
        return {}
    if len(a) < len(b):
        a, b = b, a
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
    return {e: _norm(c) for e, c in out.items()}


def _mul_dict_trunc(a, b, bound):
    if not a or not b:
        return {}
    if len(a) < len(b):
        a, b = b, a
    bi = sorted(((sum(e2), e2, c2) for e2, c2 in b.items()))
    out = {}
    get = out.get
    for e1, c1 in a.items():
        room = bound - sum(e1)
        if room < 0:
            continue
        for d2, e2, c2 in bi:
            if d2 > room:
                break
            ke = tuple(map(_add, e1, e2))
            s = get(ke, 0) + c1 * c2
            if s:
                out[ke] = s
            elif ke in out:
                del out[ke]
    return {e: _norm(c) for e, c in out.items()}


def _add_into(acc, terms, factor=1):
    for e, c in terms.items():
        s = acc.get(e, 0) + c * factor
        if s:
            acc[e] = s
        elif e in acc:
            del acc[e]


def product(factors, variables=None, bound=None):
    """Multiply a sequence of Polys, optionally truncating by total degree.

    Factors are folded in the given order; each step multiplies the running
    product by the next (typically small) factor.
    """
    factors = list(factors)
    if variables is None:
        variables = factors[0].vars
    acc = Poly.const(variables, 1)
    for f in factors:
        acc = acc.mul_trunc(f, bound) if bound is not None else acc * f
    return acc


class TruncSeries:
    """A Poly together with a total-degree truncation bound.

    Arithmetic discards monomials of total degree above the bound.  The bound
    is an explicit part of the value; mixed-bound arithmetic is an error.
    """

    __slots__ = ("poly", "bound")

    def __init__(self, poly, bound):
        if bound < 0:
            raise ValueError("truncation bound must be non-negative")
        self.poly = poly.truncate(bound)
        self.bound = bound

    @classmethod
    def const(cls, variables, c, bound):
        return cls(Poly.const(variables, c), bound)

    @property
    def vars(self):
        return self.poly.vars

    def is_zero(self):
        return self.poly.is_zero()

    def _coerce(self, other):
        if isinstance(other, TruncSeries):
            if other.bound != self.bound:
                raise ValueError(
                    f"truncation bounds differ: {self.bound} vs {other.bound}")
            return other
        if isinstance(other, Poly):
            return TruncSeries(other, self.bound)
        return TruncSeries(Poly.const(self.poly.vars, other), self.bound)

    def __add__(self, other):
        other = self._coerce(other)
        return TruncSeries(self.poly + other.poly, self.bound)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(-self.poly, self.bound)

    def __sub__(self, other):
        other = self._coerce(other)
        return TruncSeries(self.poly - other.poly, self.bound)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncSeries(self.poly.scale(other), self.bound)
        other = self._coerce(other)
        return TruncSeries(self.poly.mul_trunc(other.poly, self.bound), self.bound)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, TruncSeries):
            return self.bound == other.bound and self.poly == other.poly
        return NotImplemented

    def __repr__(self):
        return f"{self.poly!r} + O(deg {self.bound + 1})"

    def truncate(self, bound):
        if bound > self.bound:
            raise ValueError("cannot raise a truncation bound")
        return TruncSeries(self.poly, bound)

    def substitute(self, images, target_vars=None):
        return TruncSeries(self.poly.substitute(images, target_vars), self.bound)

    def invert(self):
        """Multiplicative inverse up to the bound; needs a unit constant term."""
        c0 = self.poly.constant_term()
        if c0 == 0:
            raise ZeroDivisionError("series inversion needs a nonzero constant term")
        return self.divide_into(TruncSeries.const(self.vars, 1, self.bound))

    def divide_into(self, num):
        """num / self as a series (self must have nonzero constant term)."""
        num = self._coerce(num)
        c0 = self.poly.constant_term()
        if c0 == 0:
            raise ZeroDivisionError("series division needs a unit denominator")
        inv0 = _norm(Fraction(1, 1) / c0)
        den_slices = self.poly.by_degree()
        num_slices = num.poly.by_degree()
        q_slices = {}
        for d in range(self.bound + 1):
            acc = dict(num_slices.get(d, {}))
            for e in range(1, d + 1):
                de = den_slices.get(e)
                qd = q_slices.get(d - e)
                if de and qd:
                    _add_into(acc, _mul_dict(de, qd), -1)
            if inv0 != 1:
                acc = {k: _norm(v * inv0) for k, v in acc.items()}
            acc = {k: _norm(v) for k, v in acc.items() if v}
            if acc:
                q_slices[d] = acc
        out = {}
        for sl in q_slices.values():
            out.update(sl)
        return TruncSeries(Poly(self.vars, out, _clean=False), self.bound)

    def exact_divide_homogeneous(self, den):
        """Gradewise exact division by a homogeneous polynomial.

        Result is a series correct to bound - deg(den); any slice with a
        nonzero remainder aborts (this signals a formula transcription error,
        never something to truncate away).
        """
        if den.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        degs = {sum(e) for e in den.terms}
        if len(degs) != 1:
            raise ValueError("denominator must be homogeneous")
        g = degs.pop()
        if g > self.bound:
            raise ValueError("denominator degree exceeds the truncation bound")
        out = Poly.zero(self.vars)
        for d, sl in self.poly.by_degree().items():
            if d < g:
                if sl:
                    raise ExactDivisionError(
                        f"nonzero remainder: degree-{d} slice below divisor degree")
                continue
            if d > self.bound:
                continue
            q = Poly(self.vars, sl, _clean=False).exact_divide(den)
            out = out + q
        return TruncSeries(out, self.bound - g)
