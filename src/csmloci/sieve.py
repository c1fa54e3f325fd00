"""SSM classes of the corank orbits by the inclusion-exclusion sieve.

The building block is the pushforward class Phi_{n,r} of the fibered
resolution, a subset sum over r-element subsets I of [n] of products of
weight factors over unit denominators (1 + a_i + a_j).  Multiplying by
c(V) = prod (1 + a_i + a_j), symmetric in all n roots, clears every one of
them: Phi c(V) is a Gysin pushforward from a Grassmann bundle
(schur.pushforward_schur) with inner c(V) on J and nothing inverted.  So
Phi_{n,r} through degree D is Phi c(V) cut at D (phi_cv_schur) divided by
c(V) through interp.over_cv, as the interpolation route divides W.  The
division (interp.divide_by_cv) goes to c_1..c_n on the partition index of
n (schur.packed_chern_rows), with each Chern monomial packed into one int so
that multiplying two monomials is adding two ints, long-divides by c(V)
through weighted degree D (its packed rows cached once per (family, n, D)),
and comes back to Schur coefficients on the same index.

The orbit SSM classes are alternating linear combinations of Phi classes
over the orbits in the closure: Euler-number coefficients in the
skew-symmetric family, plain signed binomials in the symmetric family.  The
same combination of the polynomials Phi_{n,r} c(V), uncut, gives the CSM
classes exactly.  The class of a closure is the sum of its orbits' classes
(interp.closure_schur), and a class is cut at its truncation degree where
it is built (schur_class).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from types import MappingProxyType

from .classes import schur_class
from .interp import chern_schur, closure_schur, over_cv
from .orbits import Family, suborbit_coranks
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
    """Schur coefficients of Phi_{n,r} up to total degree D, read-only:
    Phi c(V) divided by c(V) through degree D (interp.over_cv), which gives
    Phi_{n,0} = c(V) / c(V) = 1 without a division."""
    return over_cv(phi_cv_schur, orbit, D)


def phi_class(orbit, D):
    """Phi_{n,r} as a Schur-basis ClassExpr truncated at D."""
    return schur_class("phi", orbit, phi_schur(orbit, D), trunc=D)


@lru_cache(maxsize=None)
def phi_cv_schur(orbit, *cut):
    """Schur coefficients of the polynomial Phi_{n,r} c(V), read-only: exact,
    or through degree D when cut is (D,).

    For the open orbit it is c(V) itself (chern_schur, cut alike).  Else
    c(V) cancels every unit denominator of the subset term and leaves
    c(V_{n-r}) on J, so the pushforward has inner c(V_{n-r}), cut alike, and
    the factors (a_i + a_j)(1 + a_i - a_j) over I x J."""
    family, n, r = orbit.family, orbit.n, orbit.r
    if r == 0:
        return chern_schur(family, n, *cut)
    return MappingProxyType(pushforward_schur(family, n, r, chern_schur(family, n - r, *cut),
                                              ((0, 1), (1, -1)), *cut))


# -- sieve formulas ------------------------------------------------------

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

