"""K-theoretic classes: q-analogs and the motivic Segre sieve (skew family).

Classes live in the ring of symmetric Laurent polynomials in the K-theory
Chern roots a_1..a_n with the genus parameter y adjoined, realized here as
exact LaurentFraction records, reduced where they are built (_over_pairs).
The sieve expresses the motivic Segre class of an orbit as a q-binomial /
q-Euler-number combination of K-theoretic Phi classes.

Every Phi class lives over the one fixed denominator
P_n = prod_{i<j} (a_i a_j + y).  At I = {1..r}, J = {r+1..n} (m = n - r)
the base-subset term is F / (P_n prod_{i in I, j in J} (a_i - a_j)) with F
symmetric in a_I and, separately, in a_J, so the sum over the r-subsets I
is Alt_n(F V_I V_J) / (r! m! P_n V_n), V the Vandermonde.  As
V_I = Alt_I(a_I^delta_r) and F is symmetric in a_I, and likewise on J,
Alt_n(F V_I V_J) = r! m! Alt_n(F a_I^delta_r a_J^delta_m): Phi P_n is the
bialternant read-off of F times one staircase monomial, and nothing is left
to divide.  The sieve adds these numerators as polynomials and reduces the
sum over P_n once, by one trial division (see _over_pairs).

phi_wedge_k and motivic_segre_sieve are computed once per process and hand
out their cached MotivicClass: it is frozen, and its LaurentFraction is
immutable, so no caller can change a later result.

The q appearing in the sieve coefficients is exposed as an explicit
specialization: the default convention substitutes q -> -y, the "symbolic"
convention keeps q as an extra variable.  Both are recorded in the output
metadata (see Q_CONVENTION_NOTE).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache

from .laurent import LaurentFraction
from .orbits import Family, OrbitId
from .poly import ExactDivisionError, Poly, product
from .schur import _staircase_shift, alternant_schur_coeffs, schur_dict_to_alpha

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


@lru_cache(maxsize=None)
def q_euler_numbers(max_index):
    """The tuple E_0(q)..E_max(q) of read-only polynomials with
    1/cosh_q(t) = sum E_n(q) t^n / [n]_q!, found by inverting
    cosh_q(t) = sum t^{2n}/[2n]_q!.

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
    return tuple((values[k // 2] if k % 2 == 0 else Poly.zero(QV)).read_only()
                 for k in range(max_index + 1))


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


def _phi_k_numerator(n, r):
    """F a_I^delta_r a_J^delta_m at I = {1..r}, J = {r+1..n}, m = n - r.

    F is the base-subset term times P_n prod_{i in I, j in J} (a_i - a_j):
    (a_i a_j - 1) inside I, (a_i a_j - 1)(a_i + y a_j) over I x J and
    (a_i a_j + y) inside J.  The staircase monomial stands in for the
    Vandermondes V_I V_J / (r! m!), which alternate to the same sum because
    F is symmetric in a_I and in a_J (see the module docstring)."""
    av = _k_vars(n)
    a, y = [Poly.variable(av, v) for v in av[:n]], Poly.variable(av, "y")
    I, J = range(r), range(r, n)
    factors = [Poly(av, {_staircase_shift((), r) + _staircase_shift((), n - r) + (0,): 1})]
    factors += [a[i] * a[j] - 1 for i in I for j in I if i < j]
    factors += [f for i in I for j in J for f in (a[i] * a[j] - 1, a[i] + y * a[j])]
    factors += [a[i] * a[j] + y for i in J for j in J if i < j]
    return product(factors, av)


def _pair_denominator(av, n):
    """The factors a_i a_j + y, i < j, of P_n over the variables av."""
    a, y = [Poly.variable(av, f"a{i}") for i in range(1, n + 1)], Poly.variable(av, "y")
    return [a[i] * a[j] + y for i in range(n) for j in range(i + 1, n)]


@lru_cache(maxsize=None)
def _phi_k_cleared(n, r):
    """Phi_{n,r} P_n, a read-only polynomial (P_n itself at r = 0).

    Phi_{n,r} P_n is the full signed symmetrization of _phi_k_numerator over
    the Vandermonde, read off per monomial as Schur polynomials in the a_i
    with the y exponent riding along passively."""
    by_y = defaultdict(dict)
    for (lam, tail), c in alternant_schur_coeffs(_phi_k_numerator(n, r), n).items():
        by_y[tail][lam] = c
    return Poly(_k_vars(n), {e + tail: c for tail, coeffs in by_y.items()
                             for e, c in schur_dict_to_alpha(coeffs, n).terms.items()}
                ).read_only()


def _over_pairs(num, n):
    """num / P_n as a reduced fraction, for num symmetric in the a_i.

    P_n is a product of distinct irreducible pair factors a_i a_j + y, which
    S_n permutes transitively, so one trial division by a_1 a_2 + y decides
    them all: either each divides num once, or none does and num / P_n is
    already reduced."""
    factors = _pair_denominator(num.vars, n)
    try:
        quo = num.exact_divide(factors[0]) if factors else num
    except ExactDivisionError:
        return LaurentFraction(num, product(factors, num.vars))
    for f in factors[1:]:
        quo = quo.exact_divide(f)
    return LaurentFraction(quo)


@lru_cache(maxsize=None)
def phi_wedge_k(n, r):
    """K-theoretic Phi class of Sigma_{n,r} as an exact reduced fraction:
    Phi_{n,r} P_n over the fixed denominator P_n = prod_{i<j} (a_i a_j + y),
    reduced once."""
    orbit = _check_k_scope(n, r)
    return MotivicClass(orbit, _over_pairs(_phi_k_cleared(n, r), n))


def motivic_segre_sieve(n, r, q_convention="minus-y"):
    """Motivic Segre class of Sigma_{n,r} by the q-deformed sieve:
    sum_k binom(r+2k, r)_q E_{2k}(q) Phi_{n,r+2k}, summed as the numerators
    Phi_{n,r+2k} P_n over the one denominator P_n and reduced once."""
    if q_convention not in ("minus-y", "symbolic"):
        raise ValueError(f"unknown q convention {q_convention!r}")
    return _motivic_segre_sieve(n, r, q_convention)


@lru_cache(maxsize=None)
def _motivic_segre_sieve(n, r, q_convention):
    orbit = _check_k_scope(n, r)
    symbolic = q_convention == "symbolic"
    av = _k_vars(n, extra=("q",) if symbolic else ())
    E = q_euler_numbers(n - r)
    num = Poly.zero(av)
    for k in range(0, (n - r) // 2 + 1):
        coeff_q = q_binomial(r + 2 * k, r) * E[2 * k]
        cleared = _phi_k_cleared(n, r + 2 * k)
        if symbolic:  # q becomes the last variable
            coeff = Poly(av, {(0,) * (n + 1) + e: c for e, c in coeff_q.terms.items()})
            cleared = Poly(av, {e + (0,): c for e, c in cleared.terms.items()})
        else:  # q -> -y: q^k becomes (-1)^k y^k
            coeff = Poly(av, {(0,) * n + e: (-1) ** e[0] * c for e, c in coeff_q.terms.items()})
        num = num + coeff * cleared
    conv = "q=-y" if not symbolic else "q symbolic"
    return MotivicClass(orbit, _over_pairs(num, n), kind="segre", q_convention=conv,
                        notes=(Q_CONVENTION_NOTE,))
