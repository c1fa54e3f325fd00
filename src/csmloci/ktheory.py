"""K-theoretic classes: q-analogs and the motivic Segre sieve (skew family).

Classes live in the ring of symmetric Laurent polynomials in the K-theory
Chern roots a_1..a_n with the genus parameter y adjoined, realized here as
exact reduced LaurentFractions.  The sieve expresses the motivic Segre class
of an orbit as a q-binomial / q-Euler-number combination of K-theoretic Phi
classes.

The q appearing in the sieve coefficients is exposed as an explicit
specialization: the default convention substitutes q -> -y, the "symbolic"
convention keeps q as an extra variable.  Both are recorded in the output
metadata (see Q_CONVENTION_NOTE).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .laurent import LaurentFraction
from .orbits import Family, OrbitId, weight_pairs
from .poly import Poly, product
from .schur import alternant_schur_coeffs, schur_dict_to_alpha

KSCOPE_MAX_N = 4  # exact fraction sizes grow quickly with n

Q_CONVENTION_NOTE = (
    "sieve coefficients use q -> -y by default; pass q_convention='symbolic' "
    "to keep q as an independent variable")


# -- q-analogs ----------------------------------------------------------

QV = ("q",)


def _q_int(n):
    """[n]_q = 1 + q + ... + q^(n-1)."""
    return Poly(QV, {(k,): 1 for k in range(n)})


@lru_cache(maxsize=None)
def q_factorial(n):
    if n < 0:
        raise ValueError("q-factorial of a negative integer")
    out = Poly.const(QV, 1)
    for k in range(1, n + 1):
        out = out * _q_int(k)
    return out.read_only()


@lru_cache(maxsize=None)
def q_binomial(n, m):
    """Gaussian binomial [n]!/([m]![n-m]!); the division is exact."""
    if not 0 <= m <= n:
        raise ValueError(f"q-binomial out of range: ({n}, {m})")
    return q_factorial(n).exact_divide(q_factorial(m) * q_factorial(n - m)).read_only()


@dataclass(frozen=True)
class QEulerTable:
    """E_0(q)..E_max(q) with 1/cosh_q(t) = sum E_n(q) t^n / [n]_q!."""

    values: tuple

    def __getitem__(self, k):
        return self.values[k]

    def at_q1(self):
        return tuple(p.eval({"q": 1}) for p in self.values)


@lru_cache(maxsize=None)
def q_euler_numbers(max_index):
    """q-deformed Euler numbers, by inverting cosh_q(t) = sum t^{2n}/[2n]_q!.

    Matching t^{2k} coefficients in cosh_q * (sum E_n t^n/[n]!) = 1 and
    clearing [2k]! gives the recurrence sum_j binom(2k,2j)_q E_{2j}(q) = 0,
    so each E_{2k}(q) is an integer polynomial in q; odd entries vanish.
    """
    values = [Poly.const(QV, 1)]
    for k in range(1, max_index // 2 + 1):
        acc = Poly.zero(QV)
        for j in range(k):
            acc = acc + q_binomial(2 * k, 2 * j) * values[j]
        values.append(-acc)
    return QEulerTable(tuple((values[k // 2] if k % 2 == 0 else Poly.zero(QV)).read_only()
                             for k in range(max_index + 1)))


# -- K-theoretic Phi classes ---------------------------------------------

def _k_vars(n, extra=()):
    return tuple(f"a{i}" for i in range(1, n + 1)) + ("y",) + tuple(extra)


def _check_k_scope(n, r):
    orbit = OrbitId(Family.WEDGE, n, r)
    if n > KSCOPE_MAX_N:
        raise ValueError(f"K-theory classes are bounded to n <= {KSCOPE_MAX_N} (got n={n})")
    return orbit


@dataclass(frozen=True)
class MotivicClass:
    """A K-theory class of an orbit: an exact symmetric Laurent fraction."""

    orbit: OrbitId
    value: LaurentFraction
    kind: str = "phi"
    q_convention: str = "q=-y"
    notes: tuple = ()


def _k_exps(n, *idx):
    """Exponent tuple of prod a_i over idx in _k_vars(n); index n + 1 is y."""
    e = [0] * (n + 1)
    for i in idx:
        e[i - 1] += 1
    return tuple(e)


def _phi_k_numerator(n, r):
    """Cleared numerator of the base-subset term over the common denominator
    prod_{i<j} (a_i a_j + y) * Vandermonde."""
    av, y = _k_vars(n), n + 1

    def e(*idx):
        return _k_exps(n, *idx)

    I, J = range(1, r + 1), range(r + 1, n + 1)
    inside_i, inside_j = weight_pairs(Family.WEDGE, r), [(i, j) for i in J for j in J if i < j]
    factors = [Poly(av, {e(i, j): 1, e(): -1}) for i, j in inside_i]
    for i in I:
        for j in J:
            factors += [Poly(av, {e(i, j): 1, e(): -1}), Poly(av, {e(i): 1, e(j, y): 1})]
    factors += [Poly(av, {e(i, j): 1, e(y): 1}) for i, j in inside_j]
    # root differences left over from clearing: inside I, then inside J
    factors += [Poly(av, {e(i): 1, e(j): -1}) for i, j in inside_i + inside_j]
    return product(factors, av)


def _pair_denominator(n):
    av = _k_vars(n)
    return [Poly(av, {_k_exps(n, i, j): 1, _k_exps(n, n + 1): 1})
            for i, j in weight_pairs(Family.WEDGE, n)]


@lru_cache(maxsize=None)
def phi_wedge_k(n, r):
    """K-theoretic Phi class of Sigma_{n,r} as an exact reduced fraction.

    The subset sum equals the full signed symmetrization of one cleared
    numerator divided by the Vandermonde, which is resolved per monomial (the
    y-variable rides along passively); the surviving denominator is a product
    of (a_i a_j + y) factors, enforced by explicit-factor cancellation.
    """
    orbit = _check_k_scope(n, r)
    av = _k_vars(n)
    if r == 0:
        return MotivicClass(orbit, _read_only(LaurentFraction(Poly.const(av, 1))))
    by_y = defaultdict(dict)
    for (lam, tail), c in alternant_schur_coeffs(_phi_k_numerator(n, r), n).items():
        by_y[tail][lam] = c
    stab = factorial(r) * factorial(n - r)
    numer = Poly(av, {e + tail: c for tail, coeffs in by_y.items()
                      for e, c in schur_dict_to_alpha(coeffs, n).terms.items()}
                 ).scale(Fraction(1, stab))
    den_factors = _pair_denominator(n)
    den = product(den_factors, av)
    frac = LaurentFraction(numer, den).cancel(den_factors)
    _assert_pair_denominator(frac, den_factors)
    return MotivicClass(orbit, _read_only(frac))


def _read_only(frac):
    """frac over read-only term mappings, for a cached return."""
    return LaurentFraction(frac.num.read_only(), frac.den.read_only(), canonical=True)


def _assert_pair_denominator(frac, den_factors):
    from .poly import ExactDivisionError
    rem = frac.den
    for f in den_factors:
        while True:
            try:
                rem = rem.exact_divide(f)
            except ExactDivisionError:
                break
    if rem.total_degree() > 0:
        raise AssertionError("denominator not a product of (a_i a_j + y) factors")


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


def motivic_segre_sieve(n, r, q_convention="minus-y"):
    """Motivic Segre class of Sigma_{n,r} by the q-deformed sieve:
    sum_k binom(r+2k, r)_q E_{2k}(q) Phi_{n,r+2k}."""
    orbit = _check_k_scope(n, r)
    if q_convention not in ("minus-y", "symbolic"):
        raise ValueError(f"unknown q convention {q_convention!r}")
    symbolic = q_convention == "symbolic"
    av = _k_vars(n, extra=("q",) if symbolic else ())
    E = q_euler_numbers(n - r)
    total = LaurentFraction(Poly.zero(av))
    for k in range(0, (n - r) // 2 + 1):
        coeff_q = q_binomial(r + 2 * k, r) * E[2 * k]
        if symbolic:
            cpoly = coeff_q.map_vars(av)
        else:
            minus_y = Poly.linear(_k_vars(n), 0, y=-1)
            cpoly = coeff_q.substitute({"q": minus_y}, _k_vars(n))
        phi = phi_wedge_k(n, r + 2 * k).value
        if symbolic:
            phi = LaurentFraction(phi.num.map_vars(av), phi.den.map_vars(av))
        total = total + LaurentFraction(cpoly) * phi
    total = total.cancel(_pair_denominator(n) if not symbolic else
                         [f.map_vars(av) for f in _pair_denominator(n)])
    conv = "q=-y" if not symbolic else "q symbolic"
    return MotivicClass(orbit, total, kind="segre", q_convention=conv,
                        notes=(Q_CONVENTION_NOTE,))
