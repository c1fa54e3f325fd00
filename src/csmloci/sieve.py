"""SSM classes of the corank orbits by the inclusion-exclusion sieve.

The building block is the pushforward class Phi_{n,r} of the fibered
resolution, a subset sum over r-element subsets I of [n] of products of
weight factors over unit denominators (1 + a_i + a_j).  Multiplying by
c(V) = prod (1 + a_i + a_j), symmetric in all n roots, clears every one of
them: Phi c(V) is a Gysin pushforward from a Grassmann bundle
(schur.pushforward_schur) with inner c(V) on J and nothing inverted.  So
Phi_{n,r} through degree D is that pushforward cut at D, divided by c(V):
in c_1..c_n, times the series c(V)^{-1} through weighted degree D, and
back to Schur coefficients.

The orbit SSM classes are alternating linear combinations of Phi classes
over the orbits in the closure: Euler-number coefficients in the
skew-symmetric family, plain signed binomials in the symmetric family.  The
same combination of the polynomials Phi_{n,r} c(V), uncut, gives the CSM
classes exactly.  The class of a closure is the sum of its orbits' classes
(interp.closure_schur), and a class is cut at its truncation degree where
it is built (schur_class).
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import chain
from math import comb
from operator import add as _add
from types import MappingProxyType

from .classes import schur_class
from .interp import chern_schur, closure_schur
from .orbits import Family, chern_vars, suborbit_coranks
from .poly import Poly
from .schur import chern_to_schur, chern_weighted_degree, pushforward_schur, schur_to_chern


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
    """Schur coefficients of Phi_{n,r} up to total degree D, read-only:
    Phi c(V) cut at D (_phi_cv_pushforward), in c_1..c_n, times c(V)^{-1}
    through weighted degree D, back in Schur form."""
    if D < 0:
        raise ValueError("truncation bound must be non-negative")
    family, n = orbit.family, orbit.n
    if orbit.r == 0:
        return MappingProxyType({(): 1})
    numerator = schur_to_chern(_phi_cv_pushforward(orbit, D), n)
    quotient = _chern_mul_cut(numerator, _inverse_cv_chern(family, n, D), D)
    return MappingProxyType(chern_to_schur(quotient, n))


def phi_class(orbit, D):
    """Phi_{n,r} as a Schur-basis ClassExpr truncated at D."""
    return schur_class("phi", orbit, phi_schur(orbit, D), trunc=D)


def _phi_cv_pushforward(orbit, max_deg):
    """Schur coefficients of Phi_{n,r} c(V) for r >= 1, cut at degree max_deg
    unless it is None.  c(V) cancels every unit denominator of the subset
    term and leaves c(V_{n-r}) on J, so the pushforward has inner
    c(V_{n-r}) and the factors (a_i + a_j)(1 + a_i - a_j) over I x J."""
    family, n, r = orbit.family, orbit.n, orbit.r
    return pushforward_schur(family, n, r, chern_schur(family, n - r),
                             ((0, 1, 1), (1, -1, 1)), max_deg=max_deg)


@lru_cache(maxsize=None)
def _inverse_cv_chern(family, n, D):
    """c(V_n)^{-1} in c_1..c_n through weighted degree D, read-only.

    c(V) has constant term 1, so degree by degree the inverse f of g = c(V)
    is f_0 = 1, f_d = -sum_{k=1..d} g_k f_{d-k}."""
    cut = {lam: c for lam, c in chern_schur(family, n).items() if sum(lam) <= D}
    g = _by_degree(schur_to_chern(cut, n), D)
    f = [{(0,) * n: 1}]
    for d in range(1, D + 1):
        fd = defaultdict(int)
        for k in range(1, d + 1):
            for e, c in g[k]:
                for e2, c2 in f[d - k].items():
                    fd[tuple(map(_add, e, e2))] -= c * c2
        f.append({e: c for e, c in fd.items() if c})
    return Poly(chern_vars(n), {e: c for fd in f for e, c in fd.items()}, _clean=False).read_only()


def _by_degree(p, D):
    """[[(kvec, coeff)] of weighted degree d for d = 0..D] of a Chern polynomial."""
    out = [[] for _ in range(D + 1)]
    for e, c in p.terms.items():
        d = chern_weighted_degree(e)
        if d <= D:
            out[d].append((e, c))
    return out


def _chern_mul_cut(p, q, D):
    """The product of two polynomials in c_1..c_n through weighted degree D."""
    qs = _by_degree(q, D)
    out = defaultdict(int)
    for d, row in enumerate(_by_degree(p, D)):
        for e, c in row:
            for e2, c2 in chain.from_iterable(qs[:D - d + 1]):
                out[tuple(map(_add, e, e2))] += c * c2
    return Poly(p.vars, out)


# -- sieve formulas ------------------------------------------------------

@lru_cache(maxsize=None)
def phi_cv_schur(orbit):
    """Schur coefficients of the polynomial Phi_{n,r} c(V), exact and
    read-only: c(V) itself for the open orbit, else the uncut pushforward."""
    family, n = orbit.family, orbit.n
    if orbit.r == 0:
        return chern_schur(family, n)
    return MappingProxyType(_phi_cv_pushforward(orbit, None))


def _sieve_sum(orbit, closure, piece):
    """sum_s C(s, r) E_{s-r} piece(Sigma_{n,s}) over the orbits Sigma_{n,s} in
    the closure of Sigma_{n,r}, with E the Euler numbers in the
    skew-symmetric family and E_k = (-1)^k in the symmetric family; or, for
    the closure, that sum for each of its orbits, added up."""
    if closure:
        return closure_schur(lambda o: _sieve_sum(o, False, piece), orbit)
    n, r = orbit.n, orbit.r
    E = euler_numbers(n - r) if orbit.family is Family.WEDGE else \
        [(-1) ** k for k in range(n - r + 1)]
    return closure_schur(piece, orbit, [comb(s, r) * E[s - r] for s in suborbit_coranks(orbit)])


def ssm_schur(orbit, D, closure=False):
    """Schur coefficients of ssm(Sigma_{n,r}) (or of the closure) up to D."""
    return _sieve_sum(orbit, closure, lambda o: phi_schur(o, D))


def csm_sieve_schur(orbit, closure=False):
    """Schur coefficients of csm(Sigma_{n,r}) (or of the closure), exact:
    the sieve combination of the Phi_{n,s} c(V)."""
    return _sieve_sum(orbit, closure, phi_cv_schur)


def ssm_sieve(orbit, D, closure=False):
    """ssm via the sieve route, as a Schur-basis ClassExpr."""
    return schur_class("ssm", orbit, ssm_schur(orbit, D, closure=closure),
                       trunc=D, closure=closure)

