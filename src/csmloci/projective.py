"""Projectivized classes, linear-section Euler characteristics, closed formulas.

Substituting a_i -> xi/2 into the equivariant csm polynomial of an orbit
yields the ordinary (non-equivariant) CSM class of its projectivization in
Q[xi]/xi^N, N the ambient matrix-space dimension.  Since Schur polynomials
are homogeneous, the substitution factors through the Schur expansion:
s_lambda(xi/2, ..., xi/2) = #SSYT(lambda, n) * (xi/2)^|lambda|.

The degree-i coefficients of the J-involution of the resulting polynomial
are the Euler characteristics of general linear sections.

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
from .poly import ExactDivisionError, Poly, exact_int


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
    out = [Fraction(0)] * N
    for lam, c in schur_coeffs.items():
        d = sum(lam)
        if d >= N:
            continue
        out[d] += Fraction(c) * count_ssyt(lam, n) / (2 ** d)
    return [exact_int(v, "projectivized coefficient") for v in out]


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
    """The involution J(p)(t) = (t p(-t-1) + p(0)) / (t+1) on Q[t].

    Exchanges the CSM coefficient polynomial of a locally closed subset of
    projective space with its linear-section Euler-characteristic polynomial.
    The division by t+1 is exact; a remainder signals malformed input.
    """
    tv = ("t",)
    if not isinstance(p, Poly):
        p = Poly(tv, {(i,): c for i, c in enumerate(p)})
    t = Poly.variable(tv, "t")
    shifted = p.substitute({"t": Poly.linear(tv, -1, t=-1)}, tv)
    num = t * shifted + Poly.const(tv, p.coefficient((0,)))
    try:
        return num.exact_divide(Poly.linear(tv, 1, t=1))
    except ExactDivisionError:
        raise ExactDivisionError("J-transform input is not a CSM coefficient polynomial")


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
    g = gamma_coeffs(proj)
    jt = aluffi_J(g)
    M = proj.ambient - 1
    return [(-1) ** i * jt.coefficient((i,)) for i in range(M + 1)]


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
    projectivization (corank <= n-2 in the skew family, <= n-1 symmetric)."""
    family = as_family(family)
    rmax = n - 2 if family is Family.WEDGE else n - 1
    rs = [r for r in coranks(family, n) if r <= rmax]
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

    Empty projectivizations (r = n skew/symmetric, r = n-1 skew) get
    degree 0 and chi 0.
    """
    family, n, r = orbit.family, orbit.n, orbit.r
    cd = codim(orbit)
    if family is Family.WEDGE:
        if r > n - 2:
            return ClosedInvariants(orbit, cd, 0, 0)
        if r == 0:
            deg = 1
        else:
            val = Fraction(1, 2 ** (r - 1))
            for i in range(r - 1):
                val *= Fraction(comb(n + i, r - 1 - i), comb(2 * i + 1, i))
            deg = exact_int(val, "closure degree")
        if r == n - 2:
            chi = comb(n, 2)
        else:
            chi = 0
        return ClosedInvariants(orbit, cd, deg, chi)
    if r > n - 1:
        return ClosedInvariants(orbit, cd, 0, 0)
    val = Fraction(1)
    for i in range(r):
        val *= Fraction(comb(n + i, r - i), comb(2 * i + 1, i))
    deg = exact_int(val, "closure degree")
    if r == n - 1:
        chi = n
    elif r == n - 2:
        chi = comb(n, 2)
    else:
        chi = 0
    return ClosedInvariants(orbit, cd, deg, chi)


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
