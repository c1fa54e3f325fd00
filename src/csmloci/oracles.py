"""Reference routes: independent implementations that the tests compare the
production classes against.  No production module imports this.

- TruncSeries, a power series cut at a total degree, divides gradewise;
  csm_to_ssm and phi_reference_series divide with it.
- schur_poly and branching_schur_dict_to_alpha expand each s_lambda into
  its monomials by the branching rule; they check schur_dict_to_alpha's
  Kostka route and the Pieri strips.
- total_chern and euler_class expand c(V) and e(V) in the Chern roots, one
  factor per weight (weight_pairs); they check chern_schur, the smooth
  Chern-Mather class and the probes' c(T)e(N).
  chern_schur_bareiss computes each of Lascoux's coefficients of c(V) by its
  own determinant; it checks chern_schur's box-removal recurrence.
- to_chern_basis, chern_to_alpha and to_schur_basis convert through the full
  polynomial in the roots.  They check schur_to_chern, chern_to_schur and
  each other.
- schur_dict_value (alternant determinants), w_value and w_inner_value (the
  defining W sums) evaluate at rational points; they check the kernel.
- csm_to_ssm divides by c(V) as a series in the roots; it checks the
  interpolation ssm and with it interp.over_cv and the long division in
  c_1..c_n of divide_by_cv, which both ssm routes share.
- phi_reference_series clears every subset term of Phi to the Vandermonde
  and divides; phi_from_ssm inverts the sieve.  They check the Phi classes.
- restrict substitutes the roots at a probe orbit's torus, and
  verify_axioms_by_substitution checks the interpolation axioms on the
  alpha polynomial with it, dividing by every tangent factor; they check
  interp.verify_axioms, which restricts the Schur form by branching.
- phi_wedge_k_value sums the K-theory Phi terms at a point; it checks phi_wedge_k.
- CanonicalFraction is a LaurentFraction in canonical form with field
  arithmetic, equality, cancellation and substitution; it re-adds the
  motivic Segre sieve and checks that the K-theory fractions come out
  canonical.
- parse_class_json inverts the CLI's JSON class document, for round trips.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod
from operator import add as _add
from types import MappingProxyType

from .classes import ClassExpr, add_schur
from .interp import AxiomCheck, AxiomReport, _probe, w_function
from .laurent import LaurentFraction
from .orbits import (Family, OrbitId, alpha_vars, as_family, chern_vars, coranks,
                     inside_weights)
from .partitions import partition
from .poly import ExactDivisionError, Poly, _grlex_key, _mul_dict, _norm, exact_int, product
from .schur import NotSymmetricError, _staircase_shift, alternant_schur_coeffs, schur_dict_to_alpha
from .sieve import ssm_schur


def constant_term(p):
    nvars = len(p.vars)
    return p.terms.get((0,) * nvars, 0)


def by_degree(p):
    """Split into slices: total degree -> raw term dict."""
    out = {}
    for e, c in p.terms.items():
        out.setdefault(sum(e), {})[e] = c
    return out


def truncate(p, bound):
    """p with the monomials of total degree > bound dropped."""
    return Poly(p.vars, {e: c for e, c in p.terms.items() if sum(e) <= bound},
                _clean=False)


def mul_trunc(p, other, bound):
    """Product with monomials of total degree > bound discarded."""
    p._check_vars(other)
    return Poly(p.vars, _mul_dict_trunc(p.terms, other.terms, bound),
                _clean=False)


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


def truncated_product(factors, variables, bound):
    """Multiply a sequence of Polys, truncating by total degree at each step."""
    acc = Poly.const(variables, 1)
    for f in factors:
        acc = mul_trunc(acc, f, bound)
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
        self.poly = truncate(poly, bound)
        self.bound = bound

    @classmethod
    def const(cls, variables, c, bound):
        return cls(Poly.const(variables, c), bound)

    @property
    def vars(self):
        return self.poly.vars

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

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncSeries(self.poly.scale(other), self.bound)
        other = self._coerce(other)
        return TruncSeries(mul_trunc(self.poly, other.poly, self.bound), self.bound)

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

    def invert(self):
        """Multiplicative inverse up to the bound; needs a unit constant term."""
        c0 = constant_term(self.poly)
        if c0 == 0:
            raise ZeroDivisionError("series inversion needs a nonzero constant term")
        return self.divide_into(TruncSeries.const(self.vars, 1, self.bound))

    def divide_into(self, num):
        """num / self as a series (self must have nonzero constant term)."""
        num = self._coerce(num)
        c0 = constant_term(self.poly)
        if c0 == 0:
            raise ZeroDivisionError("series division needs a unit denominator")
        inv0 = _norm(Fraction(1, 1) / c0)
        den_slices = by_degree(self.poly)
        num_slices = by_degree(num.poly)
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
        for d, sl in by_degree(self.poly).items():
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


def _interlacings(lam):
    """All mu with lam_1 >= mu_1 >= lam_2 >= mu_2 >= ... >= 0."""
    if not lam:
        yield ()
        return
    bounds = [(lam[i + 1] if i + 1 < len(lam) else 0, lam[i]) for i in range(len(lam))]

    def rec(i):
        if i == len(bounds):
            yield ()
            return
        lo, hi = bounds[i]
        for v in range(hi, lo - 1, -1):
            for rest in rec(i + 1):
                yield (v,) + rest

    for mu in rec(0):
        while mu and mu[-1] == 0:
            mu = mu[:-1]
        yield mu


@lru_cache(maxsize=None)
def _schur_terms(lam, n):
    """Read-only term dict of s_lambda(a_1..a_n), via the branching rule."""
    if len(lam) > n:
        return MappingProxyType({})
    if n == 0:
        return MappingProxyType({(): 1})
    out = {}
    d = sum(lam)
    for mu in _interlacings(lam):
        k = d - sum(mu)
        for e, c in _schur_terms(mu, n - 1).items():
            ke = e + (k,)
            out[ke] = out.get(ke, 0) + c
    return MappingProxyType(out)


def schur_poly(lam, n):
    """The Schur polynomial s_lambda in n variables (zero if len(lam) > n)."""
    lam = partition(lam)
    return Poly(alpha_vars(n), dict(_schur_terms(lam, n)), _clean=False)


def branching_schur_dict_to_alpha(coeffs, n, max_deg=None):
    """schur_dict_to_alpha by adding up the full monomial expansion of each
    s_lambda in a_1..a_n."""
    acc = {}
    for lam, c in coeffs.items():
        if c == 0 or len(lam) > n:
            continue
        if max_deg is not None and sum(lam) > max_deg:
            continue
        for e, k in _schur_terms(partition(lam), n).items():
            s = acc.get(e, 0) + c * k
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
    return Poly(alpha_vars(n), acc)


def weight_pairs(family, n):
    """Index pairs (i, j), 1-based, of the torus weights a_i + a_j: i < j,
    or i <= j for sym."""
    sym = as_family(family) is Family.SYM
    return [(i, j) for i in range(1, n + 1) for j in range(i if sym else i + 1, n + 1)]


def weight_factor(variables, const, i, j):
    """const + a_i + a_j, or const + 2 a_i when i = j."""
    if i == j:
        return Poly.linear(variables, const, **{f"a{i}": 2})
    return Poly.linear(variables, const, **{f"a{i}": 1, f"a{j}": 1})


def total_chern(family, n, bound=None):
    """c(V) = prod (1 + a_i + a_j), optionally truncated by total degree."""
    av = alpha_vars(n)
    factors = [weight_factor(av, 1, i, j) for i, j in weight_pairs(family, n)]
    return product(factors, av) if bound is None else truncated_product(factors, av, bound)


def euler_class(family, n):
    """e(V) = prod (a_i + a_j) over the weights."""
    av = alpha_vars(n)
    return product([weight_factor(av, 0, i, j) for i, j in weight_pairs(family, n)], av)


@lru_cache(maxsize=None)
def elementary_terms(k, n):
    """Raw terms of e_k(a_1..a_n)."""
    from itertools import combinations
    if k == 0:
        return {(0,) * n: 1}
    if k > n:
        return {}
    out = {}
    for idx in combinations(range(n), k):
        e = [0] * n
        for i in idx:
            e[i] = 1
        out[tuple(e)] = 1
    return out


@lru_cache(maxsize=None)
def _elem_power_product(kvec, n):
    """Terms of prod_k e_k^{kvec[k-1]} in the alpha variables."""
    acc = {(0,) * n: 1}
    for k, mult in enumerate(kvec, start=1):
        ek = elementary_terms(k, n)
        for _ in range(mult):
            acc = _mul_dict(acc, ek)
    return acc


def to_chern_basis(p, n=None):
    """Rewrite a symmetric polynomial in the elementary basis c_1..c_n.

    Greedy: the graded-lex leading monomial mu of what is left is dominant,
    and c^kvec with kvec_i = mu_i - mu_{i+1} has the same leading monomial,
    so it is peeled off.  Homogeneous pieces are independent, so each degree
    slice is processed on its own (lowest first), which keeps truncated
    series consistent.
    """
    if n is None:
        n = len(p.vars)
    terms = {}
    slices = by_degree(p)
    for d in sorted(slices):
        work = dict(slices[d])
        heap = [tuple(-x for x in e) for e in work]
        heapq.heapify(heap)
        while work:
            e = tuple(-x for x in heapq.heappop(heap))
            c = work.get(e)
            if c is None:
                continue
            if any(e[i] < e[i + 1] for i in range(n - 1)):
                raise NotSymmetricError(
                    f"not symmetric: leading monomial {e} is not dominant")
            kvec = tuple(e[i] - (e[i + 1] if i + 1 < n else 0) for i in range(n))
            for pe, pc in _elem_power_product(kvec, n).items():
                s = work.get(pe, 0) - c * pc
                if s:
                    if pe not in work:
                        heapq.heappush(heap, tuple(-x for x in pe))
                    work[pe] = _norm(s)
                elif pe in work:
                    del work[pe]
            terms[kvec] = _norm(c)
    return Poly(chern_vars(n), terms)


def chern_to_alpha(p, n=None):
    """Expand a polynomial in c_1..c_n back into the Chern roots."""
    if n is None:
        n = len(p.vars)
    acc = {}
    for kvec, c in p.terms.items():
        for e, k in _elem_power_product(tuple(kvec), n).items():
            s = acc.get(e, 0) + c * k
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
    return Poly(alpha_vars(n), acc)


def _require_symmetric(p, n):
    """Raise NotSymmetricError unless p is a polynomial, with no negative
    exponent, and each monomial's S_n-orbit is present in full, every member
    with the coefficient of its dominant rearrangement."""
    if min(itertools.chain.from_iterable(p.terms), default=0) < 0:
        raise NotSymmetricError("not a polynomial: an exponent is negative")
    orbit_terms = {}
    for e, c in p.terms.items():
        dom = tuple(sorted(e, reverse=True))
        if p.terms.get(dom) != c:
            raise NotSymmetricError(
                f"not symmetric: the coefficient of {e} differs from that of {dom}")
        orbit_terms[dom] = orbit_terms.get(dom, 0) + 1
    for dom, k in orbit_terms.items():
        if k != factorial(n) // prod(factorial(m) for m in Counter(dom).values()):
            raise NotSymmetricError(
                f"not symmetric: {k} of the permutations of {dom} are present")


def to_schur_basis(p, n=None):
    """Schur coefficients {partition: coeff} of a symmetric polynomial.

    For symmetric p, Alt(p a^delta) = p * Vandermonde with delta = (n-1, ..., 0),
    so the bialternant extraction of p with every exponent shifted by delta
    is the Schur expansion of p.  Accepts a Poly or a TruncSeries; monomials
    are read one by one, so a truncated series gives its truncated expansion.
    """
    if isinstance(p, TruncSeries):
        p = p.poly
    if n is None:
        n = len(p.vars)
    _require_symmetric(p, n)
    shifted = {tuple(x + n - 1 - i for i, x in enumerate(e)): c for e, c in p.terms.items()}
    return {lam: c for (lam, _), c in
            alternant_schur_coeffs(Poly(p.vars, shifted, _clean=False), n).items()}


def _det(rows):
    """Exact determinant of an integer matrix, fraction-free (Bareiss)."""
    m = [list(row) for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def schur_dict_value(coeffs, vals):
    """Evaluate a Schur coefficient dict at an exact rational point with
    distinct coordinates, by the ratio of alternant determinants.

    s_lam is homogeneous of degree |lam|, so the point is scaled to integers
    v = q * vals by the common denominator q, and s_lam(vals) is
    det(v_i^(lam_j + n - j)) / (q^|lam| det(v_i^(n - j))).
    """
    n = len(vals)
    vals = [Fraction(v) for v in vals]
    q = lcm(*(v.denominator for v in vals))
    ints = [int(v * q) for v in vals]

    def alternant(lam):
        padded = lam + (0,) * (n - len(lam))
        return _det([[v ** (padded[j] + n - 1 - j) for j in range(n)] for v in ints])

    total = Fraction(0)
    for lam, c in coeffs.items():
        lam = partition(lam)
        if len(lam) <= n:
            total += c * Fraction(alternant(lam), q ** sum(lam))
    return total / alternant(())


def chern_schur_bareiss(family, n):
    """c(V) in Schur form by Lascoux's formula with one Bareiss determinant
    det(C(lam_i + n - i, mu_j + n - j)) and one exact Fraction per mu inside
    lam: the reference for interp.chern_schur's box-removal recurrence."""
    lam, coeff = inside_weights(family, n)
    mus = [()]
    for part in lam:
        mus = [mu + (k,) for mu in mus for k in range(min(mu[-1:] + (part,)) + 1)]
    tops = _staircase_shift(lam, n)
    out = {}
    for mu in mus:
        mu = tuple(k for k in mu if k)
        det = _det([[comb(t, b) for b in _staircase_shift(mu, n)] for t in tops])
        out[mu] = exact_int(Fraction(coeff * det << sum(mu), 1 << sum(lam)),
                            f"c(V) coefficient of s{mu}")
    return out


def csm_to_ssm(csm, D):
    """ssm = csm / c(V) by series division in the Chern roots: the test
    oracle for ssm_interp_schur.  Returns a Schur-basis ClassExpr truncated
    at D."""
    family, n = csm.family, csm.n
    cv = TruncSeries(total_chern(family, n, bound=D), D)
    num = TruncSeries(truncate(schur_dict_to_alpha(csm.payload, n), D), D)
    coeffs = to_schur_basis(cv.divide_into(num), n)
    return ClassExpr("ssm", family, n, csm.r, coeffs, D, csm.closure)


def _pair_blocks(k):
    """Standard blocks (1,2),(3,4),... among 1..k; odd k leaves k unpaired."""
    return [(2 * b - 1, 2 * b) for b in range(1, k // 2 + 1)]


def _inner_stabilizer(family, k):
    m = k // 2
    return (2 ** m) * factorial(m) if family is Family.WEDGE else factorial(m)


def _f_val(x, y):
    return (1 + x + y) * (x + y) / (x - y)


@lru_cache(maxsize=None)
def _perms_with_sign(k):
    out = []
    for p in itertools.permutations(range(k)):
        inv = sum(1 for i in range(k) for j in range(i + 1, k) if p[i] > p[j])
        out.append((p, -1 if inv % 2 else 1))
    return out


def w_inner_value(family, k, vals):
    """Evaluate the inner symmetrized sum at exact rational points.

    Uses the factorization: every permutation term shares the full product
    of pair factors up to sign, so the sum is a common factor times a signed
    sum of block-factor products over all permutations.
    """
    family = as_family(family)
    if k == 0:
        return Fraction(1)
    vals = [Fraction(v) for v in vals]
    common = Fraction(1)
    for i in range(k):
        for j in range(i + 1, k):
            common *= _f_val(vals[i], vals[j])

    blocks = _pair_blocks(k)
    if family is Family.WEDGE:
        def g(a, b):
            return 1 / _f_val(a, b)
    else:
        def g(a, b):
            return -b * (1 + 2 * a) * (1 - a + b) / ((a + b) * (1 + a + b))

    total = Fraction(0)
    for p, sign in _perms_with_sign(k):
        term = Fraction(sign)
        for (x, y) in blocks:
            term *= g(vals[p[x - 1]], vals[p[y - 1]])
        total += term
    return common * total / _inner_stabilizer(family, k)


def w_value(orbit, vals):
    """Evaluate W_{n,r} at a point with pairwise distinct coordinates."""
    family, n, r = orbit.family, orbit.n, orbit.r
    vals = [Fraction(v) for v in vals]
    if len(vals) != n:
        raise ValueError(f"need {n} coordinates")
    total = Fraction(0)
    for I in itertools.combinations(range(n), r):
        Iset = set(I)
        rest = [i for i in range(n) if i not in Iset]
        term = w_inner_value(family, n - r, [vals[i] for i in rest])
        if family is Family.SYM:
            for x in range(len(I)):
                for y in range(x, len(I)):
                    term *= vals[I[x]] + vals[I[y]]
        else:
            for x in range(len(I)):
                for y in range(x + 1, len(I)):
                    term *= vals[I[x]] + vals[I[y]]
        for i in I:
            for j in rest:
                term *= (vals[i] + vals[j]) * (1 + vals[i] + vals[j]) / (vals[i] - vals[j])
        total += term
    return total


def phi_reference_series(orbit, D):
    """Literal subset-sum route, for cross-checking at small n.

    Clears every term to the full Vandermonde, sums the numerators over all
    binom(n, r) subsets explicitly, and performs the gradewise exact division
    (which must leave zero remainder in every slice).
    """
    family, n, r = orbit.family, orbit.n, orbit.r
    av = alpha_vars(n)
    work = D + comb(n, 2)
    lin = lambda const, **kw: Poly.linear(av, const, **kw)
    total = TruncSeries(Poly.zero(av), work)
    for I in itertools.combinations(range(1, n + 1), r):
        Iset = set(I)
        rest = [j for j in range(1, n + 1) if j not in Iset]
        numer, units = [], []
        for x in range(len(I)):
            rng = range(x, len(I)) if family is Family.SYM else range(x + 1, len(I))
            for y in rng:
                i, j = I[x], I[y]
                w = {f"a{i}": 2} if i == j else {f"a{i}": 1, f"a{j}": 1}
                numer.append(lin(0, **w))
                units.append(lin(1, **w))
        denom_diffs = []
        for i in I:
            for j in rest:
                numer.append(lin(0, **{f"a{i}": 1, f"a{j}": 1}))
                numer.append(lin(1, **{f"a{i}": 1, f"a{j}": -1}))
                units.append(lin(1, **{f"a{i}": 1, f"a{j}": 1}))
                denom_diffs.append((i, j))
        # complement of the term's difference denominators inside the Vandermonde
        have = {tuple(sorted(p)) for p in denom_diffs}
        missing = []
        sign = 1
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if (i, j) in have:
                    continue
                missing.append(lin(0, **{f"a{i}": 1, f"a{j}": -1}))
        for (i, j) in denom_diffs:
            if i > j:
                sign = -sign
        num_poly = truncated_product(numer + missing, av, work).scale(sign)
        ser = TruncSeries(truncated_product(units, av, work), work).divide_into(
            TruncSeries(num_poly, work))
        total = total + ser
    vandermonde = product([lin(0, **{f"a{i}": 1, f"a{j}": -1})
                           for i in range(1, n + 1) for j in range(i + 1, n + 1)], av)
    return total.exact_divide_homogeneous(vandermonde).truncate(D)


def phi_from_ssm(orbit, D):
    """Phi_{n,r} = sum binom(r+2i, r) ssm(Sigma_{n,r+2i}): the inverse
    relation, used as a consistency check on the sieve coefficients."""
    family, n, r = orbit.family, orbit.n, orbit.r
    if family is Family.WEDGE:
        pieces = [ssm_schur(OrbitId(family, n, r + 2 * i), D)
                  for i in range(0, (n - r) // 2 + 1)]
        coeffs = [comb(r + 2 * i, r) for i in range(0, (n - r) // 2 + 1)]
    else:
        pieces = [ssm_schur(OrbitId(family, n, r + i), D)
                  for i in range(0, n - r + 1)]
        coeffs = [comb(r + i, r) for i in range(0, n - r + 1)]
    return add_schur(*pieces, coeffs=coeffs)


def restrict(probe, poly):
    """poly in a_1..a_n restricted to the torus of the probe orbit by
    substituting each root of interp._probe."""
    rvars, roots = _probe(probe.n, probe.r)[:2]
    return poly.substitute(dict(zip(alpha_vars(probe.n), roots)), rvars)


def verify_axioms_by_substitution(orbit, candidate=None):
    """interp.verify_axioms by the alpha route: the candidate Poly (W_orbit
    by default) is restricted to every probe by substitution, and axiom 2
    divides the image by every tangent factor in turn."""
    n, r = orbit.n, orbit.r
    if candidate is None:
        candidate = w_function(orbit).poly
    checks = []
    for m in coranks(Family.WEDGE, n):
        probe = OrbitId(Family.WEDGE, n, m)
        _, _, tangent, _, tangent_normal, bound = _probe(n, m)
        image = restrict(probe, candidate)
        entry = AxiomCheck(probe)
        if m < r:
            entry.vanishing = image.is_zero()
        if m == r:
            entry.axiom1 = (image == tangent_normal)
        rem = image
        ok2 = True
        for f in tangent:
            try:
                rem = rem.exact_divide(f)
            except ExactDivisionError:
                ok2 = False
                break
        entry.axiom2 = ok2
        if m != r:
            entry.axiom3 = image.total_degree() < bound
        checks.append(entry)
    return AxiomReport(orbit, checks)


def phi_wedge_k_value(n, r, alphas, y):
    """Independent oracle: evaluate the subset sum term by term."""
    alphas = [Fraction(a) for a in alphas]
    y = Fraction(y)
    total = Fraction(0)
    for I in itertools.combinations(range(n), r):
        Iset = set(I)
        rest = [j for j in range(n) if j not in Iset]
        term = Fraction(1)
        for x in range(len(I)):
            for z in range(x + 1, len(I)):
                ai, aj = alphas[I[x]], alphas[I[z]]
                term *= (1 - 1 / (ai * aj)) / (1 + y / (ai * aj))
        for i in I:
            for j in rest:
                ai, aj = alphas[i], alphas[j]
                term *= (1 - 1 / (ai * aj)) * (1 + y * aj / ai) / (
                    (1 + y / (ai * aj)) * (1 - aj / ai))
        total += term
    return total


# -- the reference Laurent fraction ---------------------------------------

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
    g = 0
    for p in polys:
        for c in p.terms.values():
            g = gcd(g, abs(int(c * denom_lcm)))
    return Fraction(denom_lcm, g if g else 1)


def _canonical(num, den):
    """(num, den) shifted by the minimal exponents, with integer coprime
    coefficients and a positive graded-lex leading coefficient of den."""
    if num.is_zero():
        return Poly.zero(num.vars), Poly.const(num.vars, 1)
    offsets = _min_exponents(num, den)
    num, den = _shift(num, offsets), _shift(den, offsets)
    scale = _content_scale(num, den)
    if den.terms[max(den.terms, key=_grlex_key)] < 0:
        scale = -scale
    if scale != 1:
        num, den = num.scale(scale), den.scale(scale)
    return num, den


class CanonicalFraction(LaurentFraction):
    """A LaurentFraction in canonical form: both sides shifted by the minimal
    exponent of each variable, integer coprime coefficients, and a positive
    graded-lex leading coefficient of den.  Adds, multiplies, compares by
    cross-multiplication, cancels supplied factors and substitutes."""

    __slots__ = ()

    def __init__(self, num, den=None):
        super().__init__(num, den)
        num, den = _canonical(self.num, self.den)
        object.__setattr__(self, "num", num.read_only())
        object.__setattr__(self, "den", den.read_only())

    def _coerce(self, other):
        if isinstance(other, LaurentFraction):
            return other
        if not isinstance(other, Poly):
            other = Poly.const(self.vars, other)
        return CanonicalFraction(other)

    def __add__(self, other):
        other = self._coerce(other)
        if self.den == other.den:
            return CanonicalFraction(self.num + other.num, self.den)
        return CanonicalFraction(self.num * other.den + other.num * self.den,
                                 self.den * other.den)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        return CanonicalFraction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, (LaurentFraction, Poly, int, Fraction)):
            return NotImplemented
        other = self._coerce(other)
        return self.num * other.den == other.num * self.den

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
        return CanonicalFraction(num, den)

    def substitute(self, images, target_vars=None):
        return CanonicalFraction(self.num.substitute(images, target_vars),
                                 self.den.substitute(images, target_vars))


def parse_class_json(doc):
    """The class of a JSON class document as json.loads reads it (the text
    of emit.json_text(emit.class_json_dict(...))), for round-trip checks.
    Its payload is the Schur dict of a schur document, else the Poly the
    document writes, in c_1..c_n or a_1..a_n."""
    basis = doc["basis"]
    if basis == "schur":
        payload = {tuple(t["key"]): Fraction(t["coeff"]) for t in doc["terms"]}
    else:
        n = doc["n"]
        vars_ = chern_vars(n) if basis == "chern" else alpha_vars(n)
        payload = Poly(vars_, {tuple(t["key"]): Fraction(t["coeff"]) for t in doc["terms"]})
    return ClassExpr(doc["kind"], as_family(doc["family"]), doc["n"], doc["r"],
                     payload, doc["trunc"], doc.get("closure", False),
                     list(doc.get("warnings", [])))
