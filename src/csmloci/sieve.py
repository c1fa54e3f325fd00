"""SSM classes of the corank orbits by the inclusion-exclusion sieve.

The building block is the pushforward class Phi_{n,r} of the fibered
resolution, a subset sum over r-element subsets I of [n] of products of
weight factors; it is computed here by equivariant-localization bookkeeping:
unit denominators (1 + a_i + a_j) are inverted as truncated series, the root
differences (a_i - a_j) are cleared to the full Vandermonde, the subset sum
becomes a signed symmetrization of the base-subset numerator, and the final
exact gradewise Vandermonde division is realized monomial-by-monomial through
the bialternant identity (yielding Schur coefficients directly).

The orbit SSM classes are alternating linear combinations of Phi classes:
Euler-number coefficients in the skew-symmetric family, plain signed
binomials in the symmetric family.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from types import MappingProxyType

from .classes import add_schur, schur_class
from .orbits import (Family, OrbitId, alpha_vars, base_subset_pairs, root_difference,
                     suborbit_coranks, weight_factor)
from .poly import Poly, TruncSeries, exact_int, product
from .schur import alternant_schur_pure


# -- Euler numbers ------------------------------------------------------

@lru_cache(maxsize=None)
def euler_numbers(max_index):
    """E_0..E_max with 1/cosh(x) = sum E_n x^n / n!.

    Computed by exact inversion of the truncated cosh series; odd entries
    vanish and even entries alternate in sign (1, -1, 5, -61, 1385, ...).
    """
    tv = ("t",)
    cosh = Poly(tv, {(k,): Fraction(1, factorial(k)) for k in range(0, max_index + 1, 2)})
    inv = TruncSeries(cosh, max_index).invert().poly
    out = []
    for k in range(max_index + 1):
        out.append(exact_int(inv.coefficient((k,)) * factorial(k), f"Euler number E_{k}"))
    return out


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

def _phi_term_parts(family, n, r):
    """Numerator factors, unit-denominator factors and cleared Vandermonde
    complements for the base subset I = {1..r}."""
    av = alpha_vars(n)
    pairs = base_subset_pairs(family, n, r)
    numer = [weight_factor(av, 0, i, j) for i, j in pairs.inside]
    units = [weight_factor(av, 1, i, j) for i, j in pairs.inside + pairs.cross]
    for i, j in pairs.cross:
        numer += [weight_factor(av, 0, i, j), root_difference(av, i, j, const=1)]
    missing = [root_difference(av, i, j) for i, j in pairs.vandermonde]
    return numer, units, missing


@lru_cache(maxsize=None)
def phi_schur(orbit, D):
    """Schur coefficients of Phi_{n,r} up to total degree D."""
    family, n, r = orbit.family, orbit.n, orbit.r
    if r == 0:
        return MappingProxyType({(): 1})
    av = alpha_vars(n)
    work = D + comb(n, 2)
    numer, units, missing = _phi_term_parts(family, n, r)
    num_poly = product(numer + missing, av, bound=work)
    unit_poly = product(units, av, bound=work)
    series = TruncSeries(unit_poly, work).divide_into(TruncSeries(num_poly, work))
    return MappingProxyType(
        alternant_schur_pure(series.poly, n, factorial(r) * factorial(n - r), D))


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

def ssm_schur(orbit, D, closure=False):
    """Schur coefficients of ssm(Sigma_{n,r}) (or of the closure) up to D."""
    family, n, r = orbit.family, orbit.n, orbit.r
    if family is Family.WEDGE:
        if closure:
            parts = [ssm_schur(OrbitId(family, n, m), D)
                     for m in suborbit_coranks(orbit)]
            return add_schur(*parts)
        E = euler_numbers(n - r)
        pieces, coeffs = [], []
        for i in range(0, (n - r) // 2 + 1):
            pieces.append(phi_schur(OrbitId(family, n, r + 2 * i), D))
            coeffs.append(comb(r + 2 * i, r) * E[2 * i])
        return add_schur(*pieces, coeffs=coeffs)
    pieces, coeffs = [], []
    for i in range(0, n - r + 1):
        pieces.append(phi_schur(OrbitId(family, n, r + i), D))
        if closure:
            c = 1 if r == 0 and i == 0 else (0 if r == 0 else comb(r + i - 1, r - 1))
        else:
            c = comb(r + i, r)
        coeffs.append((-1) ** i * c)
    return add_schur(*pieces, coeffs=coeffs)


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
