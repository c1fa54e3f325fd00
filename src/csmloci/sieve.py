"""SSM classes of the corank orbits by the inclusion-exclusion sieve.

The building block is the pushforward class Phi_{n,r} of the fibered
resolution, a subset sum over r-element subsets I of [n] of products of
weight factors.  The sum is a Gysin pushforward from a Grassmann bundle
(schur.pushforward_schur): the unit denominators (1 + a_i + a_j) are
inverted as truncated series, inside I on monomials and across I x J by the
Pieri rule for h_k, and the result comes out in Schur coefficients.
phi_reference_series, which clears every subset term to the full
Vandermonde and divides, is the independent check.

The orbit SSM classes are alternating linear combinations of Phi classes:
Euler-number coefficients in the skew-symmetric family, plain signed
binomials in the symmetric family.  The same combination of the polynomials
Phi_{n,r} c(V) gives the CSM classes exactly: multiplying by c(V) clears
every unit denominator, so Phi c(V) is the pushforward with inner c(V) on J
and no truncation.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from types import MappingProxyType

from .classes import add_schur, schur_class
from .interp import chern_schur
from .orbits import Family, OrbitId, alpha_vars, inside_weights, suborbit_coranks, weight_pairs
from .poly import Poly, TruncSeries, product
from .schur import pushforward_schur


# -- Euler numbers ------------------------------------------------------

@lru_cache(maxsize=None)
def euler_numbers(max_index):
    """The tuple E_0..E_max with 1/cosh(x) = sum E_n x^n / n!.

    Matching coefficients in cosh(x) * sum E_n x^n / n! = 1 gives the
    integer recurrence sum_j binom(2k, 2j) E_2j = 0 for k >= 1; odd entries
    vanish and even entries alternate in sign (1, -1, 5, -61, 1385, ...).
    """
    even = [1]
    for k in range(1, max_index // 2 + 1):
        even.append(-sum(comb(2 * k, 2 * j) * even[j] for j in range(k)))
    return tuple(0 if k % 2 else even[k // 2] for k in range(max_index + 1))


def binomial_matrix(m, parity="even"):
    """(binom(2j+p, 2i+p))_{0<=i,j<=m} with p = 0 (even) or 1 (odd)."""
    p = {"even": 0, "odd": 1}[parity]
    return [[comb(2 * j + p, 2 * i + p) for j in range(m + 1)] for i in range(m + 1)]


def invert_binomial_matrix(m, parity="even"):
    """Inverse of the binomial matrix: entries binom(2j+p, 2i+p) E_{2j-2i}."""
    p = {"even": 0, "odd": 1}[parity]
    E = euler_numbers(2 * m)
    return [[comb(2 * j + p, 2 * i + p) * (E[2 * j - 2 * i] if j >= i else 0)
             for j in range(m + 1)] for i in range(m + 1)]


# -- Phi classes --------------------------------------------------------

@lru_cache(maxsize=None)
def phi_schur(orbit, D):
    """Schur coefficients of Phi_{n,r} up to total degree D."""
    family, n, r = orbit.family, orbit.n, orbit.r
    if r == 0:
        return MappingProxyType({(): 1})
    lam, coeff = inside_weights(family, r)
    inside = [(i, j, -1) for i, j in weight_pairs(family, r)]
    # over I x J: (a_i + a_j)(1 + a_i - a_j) / (1 + a_i + a_j)
    return MappingProxyType(pushforward_schur(
        n, r, {(): coeff}, lam, inside, cross=((0, 1, 1), (1, -1, 1), (1, 1, -1)), max_deg=D))


def phi_class(orbit, D):
    """Phi_{n,r} as a Schur-basis ClassExpr truncated at D."""
    if D < 0:
        raise ValueError("truncation bound must be non-negative")
    return schur_class("phi", orbit, phi_schur(orbit, D), trunc=D)


def phi_reference_series(orbit, D):
    """Literal subset-sum route, for cross-checking at small n.

    Clears every term to the full Vandermonde, sums the numerators over all
    binom(n, r) subsets explicitly, and performs the gradewise exact division
    (which must leave zero remainder in every slice).
    """
    import itertools
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
        num_poly = product(numer + missing, av, bound=work).scale(sign)
        ser = TruncSeries(product(units, av, bound=work), work).divide_into(
            TruncSeries(num_poly, work))
        total = total + ser
    vandermonde = product([lin(0, **{f"a{i}": 1, f"a{j}": -1})
                           for i in range(1, n + 1) for j in range(i + 1, n + 1)], av)
    return total.exact_divide_homogeneous(vandermonde).truncate(D)


# -- sieve formulas ------------------------------------------------------

@lru_cache(maxsize=None)
def phi_cv_schur(orbit):
    """Schur coefficients of the polynomial Phi_{n,r} c(V), exact.

    c(V) cancels every unit denominator of the Phi term and leaves
    c(V_{n-r}) on J, so the pushforward has inner c(V_{n-r}) and the factors
    (a_i + a_j)(1 + a_i - a_j) over I x J.
    """
    family, n, r = orbit.family, orbit.n, orbit.r
    if r == 0:
        return chern_schur(family, n)
    lam, coeff = inside_weights(family, r)
    inner = {mu: coeff * c for mu, c in chern_schur(family, n - r).items()}
    return MappingProxyType(pushforward_schur(
        n, r, inner, lam, cross=((0, 1, 1), (1, -1, 1))))


def _sieve_terms(orbit, closure):
    """[(corank s, coeff)]: ssm(Sigma_{n,r}), or of its closure, is
    sum coeff Phi_{n,s}.  Euler-number coefficients in the skew-symmetric
    family, plain signed binomials in the symmetric family."""
    family, n, r = orbit.family, orbit.n, orbit.r
    if family is Family.WEDGE:
        if closure:
            return [term for m in suborbit_coranks(orbit)
                    for term in _sieve_terms(OrbitId(family, n, m), False)]
        E = euler_numbers(n - r)
        return [(r + 2 * i, comb(r + 2 * i, r) * E[2 * i]) for i in range((n - r) // 2 + 1)]
    terms = []
    for i in range(n - r + 1):
        if closure:
            c = 1 if r == 0 and i == 0 else (0 if r == 0 else comb(r + i - 1, r - 1))
        else:
            c = comb(r + i, r)
        terms.append((r + i, (-1) ** i * c))
    return terms


def _sieve_sum(orbit, closure, piece):
    ranks, coeffs = zip(*((s, c) for s, c in _sieve_terms(orbit, closure) if c))
    return add_schur(*(piece(OrbitId(orbit.family, orbit.n, s)) for s in ranks),
                     coeffs=coeffs)


def ssm_schur(orbit, D, closure=False):
    """Schur coefficients of ssm(Sigma_{n,r}) (or of the closure) up to D."""
    return _sieve_sum(orbit, closure, lambda o: phi_schur(o, D))


def csm_sieve_schur(orbit, closure=False):
    """Schur coefficients of csm(Sigma_{n,r}) (or of the closure), exact:
    the sieve combination of the Phi_{n,s} c(V)."""
    return _sieve_sum(orbit, closure, phi_cv_schur)


def ssm_sieve(orbit, D, closure=False):
    """ssm via the sieve route, as a Schur-basis ClassExpr."""
    if D < 0:
        raise ValueError("truncation bound must be non-negative")
    return schur_class("ssm", orbit, ssm_schur(orbit, D, closure=closure),
                       trunc=D, closure=closure)


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
