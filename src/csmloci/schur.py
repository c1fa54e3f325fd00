"""Schur polynomials and conversions between the alpha, Chern and Schur bases.

Conventions: s_lambda is the ordinary Schur polynomial in the Chern roots
(s_11 = sum_{i<j} a_i a_j, s_2 = sum_{i<=j} a_i a_j), and c_k denotes the
k-th elementary symmetric polynomial of the roots.

Classes live in Schur form.  Chern and Schur convert into each other through
the Schur expansion of each Chern monomial, built by vertical Pieri strips:
a weighted sum of these expansions one way, a unitriangular peel the other
(Macdonald, Symmetric Functions, I.3, I.5).  The conversions through the
full polynomial in the roots (to_schur_basis, to_chern_basis, chern_to_alpha)
are kept as test oracles; schur_dict_to_alpha serves the alpha output.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, inf, lcm, prod
from operator import add as _add
from types import MappingProxyType

from .orbits import alpha_vars, chern_vars
from .partitions import partition
from .poly import Poly, TruncSeries, _norm


class NotSymmetricError(ValueError):
    """Input polynomial is not symmetric in the required variables."""


# -- Schur polynomials ------------------------------------------------

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
    """Raw term dict of s_lambda(a_1..a_n), via the branching rule."""
    if len(lam) > n:
        return {}
    if n == 0:
        return {(): 1}
    out = {}
    d = sum(lam)
    for mu in _interlacings(lam):
        k = d - sum(mu)
        for e, c in _schur_terms(mu, n - 1).items():
            ke = e + (k,)
            out[ke] = out.get(ke, 0) + c
    return out


def schur_poly(lam, n):
    """The Schur polynomial s_lambda in n variables (zero if len(lam) > n)."""
    lam = partition(lam)
    return Poly(alpha_vars(n), dict(_schur_terms(lam, n)), _clean=False)


def schur_dict_to_alpha(coeffs, n, max_deg=None):
    """Expand {partition: coeff} into a polynomial in a_1..a_n."""
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


# -- alternant (bialternant) extraction -------------------------------

def alternant_schur_coeffs(poly, n_alt):
    """Schur coefficients of Alt(poly) / Vandermonde over the first n_alt vars.

    Alt is the full signed symmetrization over S_{n_alt} and the Vandermonde
    is prod_{i<j}(a_i - a_j).  By the bialternant identity each monomial
    a^e (e with distinct entries) contributes +-s_{sort(e) - delta}; monomials
    with a repeated exponent cancel.  Trailing variables are passive: the
    result maps (partition, passive exponent tuple) -> coefficient.  Extracted
    per monomial, so truncated input yields truncated output.
    """
    out = {}
    for e, c in poly.terms.items():
        head = e[:n_alt]
        # sign = parity of the descending sort; a tie kills the monomial
        inv = 0
        dup = False
        for i in range(n_alt):
            hi = head[i]
            for j in range(i + 1, n_alt):
                if hi < head[j]:
                    inv += 1
                elif hi == head[j]:
                    dup = True
                    break
            if dup:
                break
        if dup:
            continue
        mu = sorted(head, reverse=True)
        lam = []
        ok = True
        for i, m in enumerate(mu):
            p = m - (n_alt - 1 - i)
            if p < 0:
                ok = False
                break
            lam.append(p)
        if not ok:
            continue
        while lam and lam[-1] == 0:
            lam.pop()
        key = (tuple(lam), e[n_alt:])
        s = out.get(key, 0) + (c if inv % 2 == 0 else -c)
        if s:
            out[key] = _norm(s)
        elif key in out:
            del out[key]
    return out


def alternant_schur_pure(poly, n_alt, max_deg=None):
    """alternant_schur_coeffs for a polynomial with no passive variables,
    kept for partitions of size <= max_deg."""
    return {lam: c for (lam, _), c in alternant_schur_coeffs(poly, n_alt).items()
            if max_deg is None or sum(lam) <= max_deg}


# -- Grassmannian pushforward -------------------------------------------

def _power_terms(c, q, upto):
    """[(t, coeff)] of (c + x)^q through x^upto, ascending; c is 0 or 1,
    and c = 1 when q < 0."""
    if c == 0:
        return [(q, 1)] if 0 <= q <= upto else []
    if q >= 0:
        return [(t, comb(q, t)) for t in range(min(q, upto) + 1)]
    return [(t, (-1) ** t * comb(t - q - 1, t)) for t in range(upto + 1)]


@lru_cache(maxsize=None)
def _strips(mu, k, m, vertical):
    """The partitions nu with at most m parts such that nu/mu is a vertical
    strip (no two boxes in a row) or a horizontal strip (no two in a column)
    of k boxes: e_k s_mu, resp. h_k s_mu, is the sum of these s_nu (Pieri)."""
    mu = mu + (0,) * (m - len(mu))
    out = []

    def fill(i, left, nu):
        if i == m:
            if not left:
                out.append(tuple(p for p in nu if p))
            return
        top = mu[i] + (min(left, 1) if vertical else left)
        if i:
            top = min(top, nu[i - 1] if vertical else mu[i - 1])
        for v in range(mu[i], top + 1):
            fill(i + 1, left - v + mu[i], nu + (v,))

    fill(0, k, ())
    return tuple(out)


def _pieri_mul(state, i, fk, m, vertical, bound):
    """state times sum_k fk[k](a_i) e_k(a_J) (vertical) or h_k(a_J), where
    fk[k] lists (t, coeff) of a polynomial in a_i by ascending t."""
    out = defaultdict(int)
    for (alpha, mu), c in state.items():
        room = bound - sum(alpha) - sum(mu)
        head, ai, tail = alpha[:i], alpha[i], alpha[i + 1:]
        for k, terms in enumerate(fk):
            if k > room:
                break
            strips = _strips(mu, k, m, vertical)
            for t, b in terms:
                if k + t > room:
                    break
                a2 = head + (ai + t,) + tail
                cb = c * b
                for nu in strips:
                    out[a2, nu] += cb
    return {key: c for key, c in out.items() if c}


def _unit_mul(state, i, j, p, bound):
    """state times (1 + a_i + a_j)^p, or (1 + 2a_i)^p when i = j, with
    0-based indices into the I exponents."""
    out = defaultdict(int)
    for (alpha, mu), c in state.items():
        room = bound - sum(alpha) - sum(mu)
        for t, b in _power_terms(1, p, room):
            for u in range(t + 1):
                a2 = list(alpha)
                a2[i] += u
                a2[j] += t - u
                out[tuple(a2), mu] += c * b * comb(t, u)
    return {key: c for key, c in out.items() if c}


def pushforward_schur(n, r, inner, lam=(), inside=(), cross=(), max_deg=None):
    """Schur coefficients of the sum over the r-subsets I of [n] of
    P_I s_lam(a_I) / prod_{i in I, j not in I} (a_i - a_j): the Gysin formula
    of a Grassmann bundle.  Nothing is divided here: integer inner
    coefficients give integer Schur coefficients.

    P is given at I = {1..r}, J = {r+1..n} (m = n - r) as the product of
    inner, a Schur dict in a_J; (1 + a_i + a_j)^p for each (i, j, p) of
    inside, 1-based in I (1 + 2a_i when i = j); and
    prod_{i in I, j in J} (c + a_i + s a_j)^p for each (c, s, p) of cross,
    p = +-1 and c = 1 when p = -1.  P must be symmetric in a_I.

    The state {(alpha, mu): coeff} stands for sum coeff a_I^alpha s_mu(a_J).
    Over J a cross factor is sum_k (p s)^k (c + a_i)^(p m - k) times e_k(a_J),
    or h_k(a_J) when p = -1, so it enters by Pieri strips.  The sum over I is
    Alt_n(sum coeff a_I^(alpha + lam + delta_r) a_J^(mu + delta_m)) over the
    Vandermonde, read off by the bialternant identity.  With max_deg set,
    products are cut at the degree it allows and only partitions of size
    <= max_deg are kept.
    """
    m = n - r
    bound = inf if max_deg is None else max_deg + r * m - sum(lam)
    state = {((0,) * r, mu): c for mu, c in inner.items() if sum(mu) <= bound}
    for i, j, p in inside:
        state = _unit_mul(state, i - 1, j - 1, p, bound)
    for c, s, p in cross:
        fk = [[(t, (p * s) ** k * b) for t, b in _power_terms(c, p * m - k, bound)]
              for k in range((m if p > 0 else bound) + 1)]
        for i in range(r):
            state = _pieri_mul(state, i, fk, m, p > 0, bound)

    def staircase_shift(part, k):
        return tuple(x + k - 1 - i for i, x in enumerate(part + (0,) * (k - len(part))))

    shift = staircase_shift(lam, r)
    terms = {tuple(map(_add, alpha, shift)) + staircase_shift(mu, m): c
             for (alpha, mu), c in state.items()}
    return alternant_schur_pure(Poly(alpha_vars(n), terms, _clean=False), n, max_deg)


# -- Chern <-> Schur by vertical strips -----------------------------------

@lru_cache(maxsize=None)
def _elementary_schur(kvec, n):
    """Read-only Schur dict of c^kvec = prod_k e_k^kvec[k-1] in n variables:
    each factor e_k adds the vertical k-strips (Pieri)."""
    if not any(kvec):
        return MappingProxyType({(): 1})
    k = max(i for i, x in enumerate(kvec) if x) + 1
    rest = kvec[:k - 1] + (kvec[k - 1] - 1,) + kvec[k:]
    out = defaultdict(int)
    for mu, c in _elementary_schur(rest, n).items():
        for nu in _strips(mu, k, n, True):
            out[nu] += c
    return MappingProxyType(dict(out))


def chern_to_schur(p, n):
    """Schur coefficients {partition: coeff} of a polynomial in c_1..c_n."""
    out = defaultdict(int)
    for kvec, c in p.terms.items():
        for lam, k in _elementary_schur(kvec, n).items():
            out[lam] += c * k
    return {lam: _norm(c) for lam, c in out.items() if c}


def schur_to_chern(coeffs, n):
    """A Schur dict rewritten in c_1..c_n (partitions longer than n vanish).

    Unitriangular peel: c^kvec with kvec_i = lam_i - lam_{i+1} is s_lam plus
    Schur polynomials of partitions of the same size below lam in dominance,
    hence below it in lex order, so the largest lam by (size, lex) of what
    is left is peeled off with its coefficient.
    """
    work = {lam: c for lam, c in coeffs.items() if c and len(lam) <= n}
    heap = [(-sum(lam), tuple(-x for x in lam)) for lam in work]
    heapq.heapify(heap)
    terms = {}
    while heap:
        lam = tuple(-x for x in heapq.heappop(heap)[1])
        c = work.pop(lam, 0)
        if not c:
            continue
        padded = lam + (0,) * (n + 1 - len(lam))
        kvec = tuple(padded[i] - padded[i + 1] for i in range(n))
        terms[kvec] = _norm(c)
        for nu, k in _elementary_schur(kvec, n).items():
            if nu == lam:
                continue
            if nu not in work:
                heapq.heappush(heap, (-sum(nu), tuple(-x for x in nu)))
            work[nu] = work.get(nu, 0) - c * k
    return Poly(chern_vars(n), terms)


# -- alpha-route conversions (test oracles) -------------------------------

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
    from .poly import _mul_dict
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
    slices = p.by_degree()
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
    """Raise NotSymmetricError unless each monomial's S_n-orbit is present in
    full, every member with the coefficient of its dominant rearrangement."""
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
    return alternant_schur_pure(Poly(p.vars, shifted, _clean=False), n)


def chern_weighted_degree(exps):
    """Total alpha-degree of a Chern monomial: sum i * exp_i."""
    return sum((i + 1) * x for i, x in enumerate(exps))


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
