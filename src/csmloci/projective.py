"""Projectivized classes, linear-section Euler characteristics, closed formulas.

Substituting a_i -> xi/2 into the equivariant csm polynomial of an orbit
yields the ordinary (non-equivariant) CSM class of its projectivization in
Q[xi]/xi^N, N the ambient matrix-space dimension.  Since Schur polynomials
are homogeneous, the substitution factors through the Schur expansion:
s_lambda(xi/2, ..., xi/2) = #SSYT(lambda, n) * (xi/2)^|lambda|.

The degree-i coefficients of the J-involution of the resulting polynomial
are the Euler characteristics of general linear sections; J is applied in
its closed form, a sum over the coefficients with binomial weights.

Each projectivized class is computed once per process: its coefficients are
cached as a tuple, and projectivize hands out a fresh ProjClass over a new
list, so a caller that edits ProjClass.coeffs cannot change a later result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .interp import csm_class
from .orbits import Family, OrbitId, ambient_dim, as_family, codim, coranks
from .partitions import count_ssyt
from .poly import Poly, exact_int


@dataclass
class ProjClass:
    """csm (or ssm) of P(Sigma) in Q[xi]/xi^N as an exact coefficient list."""

    orbit: OrbitId
    kind: str
    ambient: int          # N; the ambient projective space is P^{N-1}
    coeffs: list          # coeffs[i] multiplies xi^i, 0 <= i < N
    closure: bool = False

    def poly(self):
        return Poly(("xi",), {(i,): c for i, c in enumerate(self.coeffs) if c})

    def first_nonzero(self):
        for i, c in enumerate(self.coeffs):
            if c:
                return i, c
        return None, 0

    def integral(self):
        """Coefficient of xi^(N-1): the Euler characteristic of P(Sigma)."""
        return self.coeffs[-1] if self.coeffs else 0


def _xi_coeffs_from_schur(schur_coeffs, n, N):
    """The coefficients of xi^d, d < N, of the Schur dict at a_i = xi/2:
    sum over |lam| = d of c_lam #SSYT(lam, n), over 2^d."""
    out = [0] * N
    for lam, c in schur_coeffs.items():
        d = sum(lam)
        if d < N:
            out[d] += c * count_ssyt(lam, n)
    return [exact_int(Fraction(v, 1 << d), "projectivized coefficient") for d, v in enumerate(out)]


@lru_cache(maxsize=None)
def _projective_coeffs(orbit, kind, closure):
    """The xi coefficients of projectivize, computed once per (orbit, kind,
    closure) and cached as a tuple."""
    N = ambient_dim(orbit.family, orbit.n)
    coeffs = _xi_coeffs_from_schur(csm_class(orbit, closure=closure).payload, orbit.n, N)
    if kind == "ssm":
        # multiply by the inverse of (1+xi)^N mod xi^N
        coeffs = [sum(coeffs[j] * comb(N + (i - j) - 1, i - j) * (-1) ** (i - j)
                      for j in range(i + 1))
                  for i in range(N)]
    return tuple(coeffs)


def projectivize(orbit, kind="csm", closure=False):
    """Reduce csm|_{a_i -> xi/2} modulo xi^N (coefficients must be integers).

    kind "ssm" divides by the ambient total Chern class (1+xi)^N first.
    The coefficients are cached; each call returns a fresh ProjClass whose
    coeffs list is the caller's own.
    """
    if kind not in ("csm", "ssm"):
        raise ValueError(f"unknown class kind {kind!r}")
    return ProjClass(orbit, kind, ambient_dim(orbit.family, orbit.n),
                     list(_projective_coeffs(orbit, kind, closure)), closure)


def aluffi_J(p):
    """The involution J(p)(t) = (t p(-t-1) + p(0)) / (t+1) on Q[t], for p a
    coefficient list or a Poly in t.

    Exchanges the CSM coefficient polynomial of a locally closed subset of
    projective space with its linear-section Euler-characteristic polynomial.
    Expanding p(-t-1) in powers of t+1 gives the closed form
    J(p) = p_0 + sum_{k>=1} (-1)^k p_k t (t+1)^(k-1), so for i >= 1 the
    coefficient of t^i is sum_{k>=i} (-1)^k p_k C(k-1, i-1).
    """
    p = ([p.coefficient((k,)) for k in range(p.total_degree() + 1)] if isinstance(p, Poly)
         else list(p))
    coeffs = p[:1] + [sum((-1) ** k * p[k] * comb(k - 1, i - 1) for k in range(i, len(p)))
                      for i in range(1, len(p))]
    return Poly(("t",), {(i,): c for i, c in enumerate(coeffs)})


def gamma_coeffs(proj):
    """gamma_X(t) = sum a_i t^(M-i) for csm = sum a_i xi^i on P^M."""
    M = proj.ambient - 1
    out = [0] * (M + 1)
    for i, c in enumerate(proj.coeffs):
        out[M - i] = c
    return out


def section_euler_chars(proj):
    """[chi(X_0), ..., chi(X_M)]: Euler characteristics of generic linear
    sections, read off the J-involution of gamma."""
    jt = aluffi_J(gamma_coeffs(proj))
    return [(-1) ** i * jt.coefficient((i,)) for i in range(proj.ambient)]


@dataclass
class EulerTable:
    family: Family
    n: int
    closure: bool
    coranks: list
    rows: list           # rows[k][i] = chi(X_i) for orbit coranks[k]

    def column_sums(self):
        return [sum(row[i] for row in self.rows) for i in range(len(self.rows[0]))]


def euler_char_table(family, n, closure=False):
    """Linear-section Euler characteristics for the orbits with nonempty
    projectivization, those of corank r < n."""
    family = as_family(family)
    rs = [r for r in coranks(family, n) if r < n]
    if not rs:
        raise ValueError(f"no {family} orbit with n={n} has a nonempty projectivization;"
                         f" --n must be >= {2 if family is Family.WEDGE else 1}")
    rows = [section_euler_chars(projectivize(OrbitId(family, n, r), closure=closure))
            for r in rs]
    return EulerTable(family, n, closure, rs, rows)


@dataclass
class ClosedInvariants:
    orbit: OrbitId
    codim: int
    degree: int
    euler_char: int


def closed_invariants(orbit):
    """Codimension, closure degree and orbit Euler characteristic of the
    projectivized locus, by the classical closed formulas.

    The empty projectivization, of the zero orbit r = n, gets degree 0 and
    chi 0.
    """
    n, r = orbit.n, orbit.r
    wedge = orbit.family is Family.WEDGE
    if r == n:
        return ClosedInvariants(orbit, codim(orbit), 0, 0)
    # the degree is a product of k ratios of binomials, halved k times when skew
    k = max(r - 1, 0) if wedge else r
    val = Fraction(1, 2 ** k) if wedge else Fraction(1)
    for i in range(k):
        val *= Fraction(comb(n + i, k - i), comb(2 * i + 1, i))
    chi = comb(n, n - r) if n - r <= 2 else 0
    return ClosedInvariants(orbit, codim(orbit), exact_int(val, "closure degree"), chi)


def derived_invariants(orbit):
    """The same three invariants re-derived from the classes: codim and
    degree from the first nonzero coefficient of the projectivized closure
    class, chi from the top coefficient of the orbit class."""
    closure = projectivize(orbit, closure=True)
    idx, lead = closure.first_nonzero()
    chi = projectivize(orbit).integral()
    if idx is None:
        return ClosedInvariants(orbit, codim(orbit), 0, 0)
    return ClosedInvariants(orbit, idx, lead, chi)
