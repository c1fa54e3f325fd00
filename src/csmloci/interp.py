"""CSM classes of the corank orbits via the interpolation W-functions.

The W-function of an orbit is a subset sum of rational functions whose
denominators are root differences; the sum collapses to an integer symmetric
polynomial equal to the equivariant CSM class of the orbit.

Computation route: for corank r >= 1, W_{n,r} sums over the r-subsets I the
term at I = {1..r}, whose complement J carries the inner function W_{n-r,0}.
That sum is a Gysin pushforward from a Grassmann bundle
(schur.pushforward_schur): the term is kept as monomials in a_I times Schur
polynomials in a_J, the factors over I x J enter by the Pieri rule, and the
bialternant identity gives Schur coefficients.  The open orbit comes from
additivity: the csm classes of all orbits add up to c(V), so
W_{n,0} = c(V) - sum_{r>=1} W_{n,r}, and the recursion closes because
W_{n,r} needs only W_{n-r,0}; c(V) in Schur form comes from Lascoux's
closed formula.

The ssm class W_{n,r} / c(V) is computed the same way: c(V) is symmetric,
so it divides each subset term, which leaves the inner ssm of the open orbit
on J, the unit factors (1 + a_i + a_j) inside I inverted, and (a_i + a_j)
over I x J.  The open orbit again comes from additivity, the ssm classes
adding up to 1.  Closure classes and the Chern-Mather class are sums of
orbit classes over the orbits in the closure (closure_schur).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from types import MappingProxyType

from .classes import add_schur, schur_class
from .orbits import Family, OrbitId, coranks, inside_weights, suborbit_coranks
from .poly import ExactDivisionError, Poly, exact_int, product
from .schur import _det, _staircase_shift, pushforward_schur, schur_dict_to_alpha


# -- the W-functions ----------------------------------------------------

@lru_cache(maxsize=None)
def w_schur(orbit):
    """Schur coefficients of W_{n,r} = csm(Sigma_{n,r}), read-only.

    For r >= 1 the kernel pushes the base-subset term forward; the open
    orbit is c(V) minus the other orbits' classes.
    """
    family, n, r = orbit.family, orbit.n, orbit.r
    if r == 0:
        return _by_additivity(w_schur, orbit, chern_schur(family, n))
    inner = w_schur(OrbitId(family, n - r, 0)) if r < n else {(): 1}
    # over I x J: (a_i + a_j)(1 + a_i + a_j)
    return MappingProxyType(pushforward_schur(family, n, r, inner, ((0, 1, 1), (1, 1, 1))))


@lru_cache(maxsize=None)
def ssm_interp_schur(orbit, D):
    """Schur coefficients of ssm(Sigma_{n,r}) = W_{n,r} / c(V) through degree D.

    Dividing each subset term of W by c(V) leaves the inner ssm of the open
    orbit on J, the inverted unit factors inside I and (a_i + a_j) over
    I x J, so the same pushforward computes it; the open orbit comes from
    additivity, ssm(Sigma_{n,0}) = 1 - sum_{r>=1} ssm(Sigma_{n,r}).
    """
    if D < 0:
        raise ValueError("truncation bound must be non-negative")
    family, n, r = orbit.family, orbit.n, orbit.r
    if r == 0:
        return _by_additivity(lambda o: ssm_interp_schur(o, D), orbit, {(): 1})
    inner = ssm_interp_schur(OrbitId(family, n - r, 0), D) if r < n else {(): 1}
    return MappingProxyType(pushforward_schur(
        family, n, r, inner, ((0, 1, 1),), units=True, max_deg=D))


def _by_additivity(orbit_class, orbit, total):
    """The open orbit's class: total minus the class of the closure of the
    next orbit, which holds every other orbit."""
    rest = OrbitId(orbit.family, orbit.n, suborbit_coranks(orbit)[1])
    return MappingProxyType(add_schur(total, closure_schur(orbit_class, rest), coeffs=(1, -1)))


@lru_cache(maxsize=None)
def chern_schur(family, n):
    """c(V) in Schur form, exact and read-only.

    With y_i = 1/2 + a_i, c(V) = prod (y_i + y_j) = coeff s_lam(y) for
    (lam, coeff) = inside_weights(family, n).  Lascoux's formula (Macdonald,
    Symmetric Functions, I.3 Ex. 10) expands s_lam(1 + x) over the mu inside
    lam with the positive coefficients det(C(lam_i + n - i, mu_j + n - j)),
    so c(V) = coeff sum_mu 2^(|mu| - |lam|) det(...) s_mu(a), checked exact.
    """
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
    return MappingProxyType(out)


@dataclass
class WFunction:
    """An orbit's interpolation polynomial: exact, symmetric, integral."""

    orbit: OrbitId
    poly: Poly


def w_function(orbit):
    """The W-function of an orbit; equals csm(Sigma) by interpolation."""
    return WFunction(orbit, schur_dict_to_alpha(w_schur(orbit), orbit.n))


def closure_schur(orbit_class, orbit, coeffs=None):
    """sum_m coeff_m orbit_class(Sigma_{n,m}) over the orbits Sigma_{n,m} in
    the closure of orbit, coefficients all 1 unless given: by additivity,
    the class of the closure."""
    family, n = orbit.family, orbit.n
    return add_schur(*(orbit_class(OrbitId(family, n, m)) for m in suborbit_coranks(orbit)),
                     coeffs=coeffs)


def csm_class(orbit, closure=False):
    """csm as a ClassExpr (Schur basis, exact)."""
    coeffs = closure_schur(w_schur, orbit) if closure else w_schur(orbit)
    return schur_class("csm", orbit, coeffs, closure=closure)


def ssm_interp(orbit, D, closure=False):
    """ssm via the interpolation route, as a Schur-basis ClassExpr."""
    part = lambda o: ssm_interp_schur(o, D)
    coeffs = closure_schur(part, orbit) if closure else part(orbit)
    return schur_class("ssm", orbit, coeffs, trunc=D, closure=closure)


# -- restriction data and the interpolation axioms ---------------------

@dataclass
class RestrictionData:
    """Restriction to an orbit's stabilizer torus (skew-symmetric family).

    substitution sends a_1..a_n to (s_1, -s_1, ..., s_h, -s_h,
    a_{n-m+1}, ..., a_n); tangent_factors multiply to c(T_Sigma) and
    normal_factors to e(N_Sigma).
    """

    orbit: OrbitId
    vars: tuple
    substitution: dict
    tangent_factors: list
    normal_factors: list

    @property
    def tangent_chern(self):
        return product(self.tangent_factors, self.vars)

    @property
    def normal_euler(self):
        return product(self.normal_factors, self.vars)

    def restrict(self, poly):
        return poly.substitute(self.substitution, self.vars)

    def bound_degree(self):
        """deg c(T)e(N) = binom(n,2) - (n-m)/2."""
        n, m = self.orbit.n, self.orbit.r
        return comb(n, 2) - (n - m) // 2


def restriction_data(orbit):
    if orbit.family is not Family.WEDGE:
        raise ValueError("restriction data is only available for the wedge family")
    n, m = orbit.n, orbit.r
    h = (n - m) // 2
    rvars = tuple(f"s{i}" for i in range(1, h + 1)) + tuple(
        f"a{i}" for i in range(n - m + 1, n + 1))
    sub = {}
    for i in range(1, n - m + 1):
        name = f"s{(i + 1) // 2}"
        img = Poly.variable(rvars, name)
        sub[f"a{i}"] = img if i % 2 == 1 else img.scale(-1)
    for i in range(n - m + 1, n + 1):
        sub[f"a{i}"] = Poly.variable(rvars, f"a{i}")

    tangent = []
    for i in range(1, h + 1):
        for j in range(i + 1, h + 1):
            for si in (1, -1):
                for sj in (1, -1):
                    tangent.append(Poly.linear(rvars, 1, **{f"s{i}": si, f"s{j}": sj}))
    for i in range(1, h + 1):
        for j in range(n - m + 1, n + 1):
            for si in (1, -1):
                tangent.append(Poly.linear(rvars, 1, **{f"s{i}": si, f"a{j}": 1}))
    normal = []
    for i in range(n - m + 1, n + 1):
        for j in range(i + 1, n + 1):
            normal.append(Poly.linear(rvars, 0, **{f"a{i}": 1, f"a{j}": 1}))
    return RestrictionData(orbit, rvars, sub, tangent, normal)


@dataclass
class AxiomCheck:
    probe: OrbitId
    axiom1: bool = None
    axiom2: bool = None
    axiom3: bool = None
    vanishing: bool = None

    @property
    def ok(self):
        return all(v is not False for v in
                   (self.axiom1, self.axiom2, self.axiom3, self.vanishing))


@dataclass
class AxiomReport:
    orbit: OrbitId
    checks: list

    @property
    def ok(self):
        return all(c.ok for c in self.checks)


def verify_axioms(orbit, candidate=None):
    """Check the interpolation axioms for a candidate csm polynomial.

    For every orbit Omega of the same representation: equality with
    c(T)e(N) at Omega = Sigma, exact divisibility of the restriction by
    c(T_Omega), the strict degree bound for Omega != Sigma, and vanishing
    on orbits not contained in the closure.
    """
    if orbit.family is not Family.WEDGE:
        raise ValueError("axiom verification is only available for the wedge family")
    if candidate is None:
        candidate = w_function(orbit).poly
    n, r = orbit.n, orbit.r
    checks = []
    for m in coranks(Family.WEDGE, n):
        probe = OrbitId(Family.WEDGE, n, m)
        data = restriction_data(probe)
        image = data.restrict(candidate)
        entry = AxiomCheck(probe)
        if m < r:
            entry.vanishing = image.is_zero()
        if m == r:
            entry.axiom1 = (image == data.tangent_chern * data.normal_euler)
        rem = image
        ok2 = True
        for f in data.tangent_factors:
            try:
                rem = rem.exact_divide(f)
            except ExactDivisionError:
                ok2 = False
                break
        entry.axiom2 = ok2
        if m != r:
            entry.axiom3 = image.total_degree() < data.bound_degree()
        checks.append(entry)
    return AxiomReport(orbit, checks)
