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
W_{n,r} needs only W_{n-r,0}; c(V) in Schur form is the same pushforward
with r = 1.

The ssm class W_{n,r} / c(V) is computed the same way: c(V) is symmetric,
so it divides each subset term, which leaves the inner ssm of the open orbit
on J, the unit factors (1 + a_i + a_j) inside I inverted, and (a_i + a_j)
over I x J.  The open orbit again comes from additivity, the ssm classes
adding up to 1.  Closures and the Chern-Mather ssm are sums of these.

The direct rational-point evaluators of the defining sums, w_value and
w_inner_value, serve as independent oracles, and csm_to_ssm, which divides
by c(V) as a series in the Chern roots, checks the ssm classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from types import MappingProxyType

from .classes import ClassExpr, add_schur, schur_class
from .orbits import (Family, OrbitId, as_family, coranks, inside_weights, suborbit_coranks,
                     total_chern, weight_pairs)
from .poly import ExactDivisionError, Poly, TruncSeries, exact_int, product
from .schur import pushforward_schur, schur_dict_to_alpha, to_schur_basis


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
    lam, coeff = inside_weights(family, r)
    inner = w_schur(OrbitId(family, n - r, 0)) if r < n else {(): 1}
    inner = {mu: coeff * c for mu, c in inner.items()}
    # over I x J: (a_i + a_j)(1 + a_i + a_j)
    return MappingProxyType(pushforward_schur(
        n, r, inner, lam, cross=((0, 1, 1), (1, 1, 1))))


def ssm_interp_schur(orbit, D):
    """Schur coefficients of ssm(Sigma_{n,r}) = W_{n,r} / c(V) through degree D.

    Dividing each subset term of W by c(V) leaves the inner ssm of the open
    orbit on J, the inverted unit factors inside I and (a_i + a_j) over
    I x J, so the same pushforward computes it; the open orbit comes from
    additivity, ssm(Sigma_{n,0}) = 1 - sum_{r>=1} ssm(Sigma_{n,r}).
    """
    if D < 0:
        raise ValueError("truncation bound must be non-negative")
    return _ssm_interp_schur(orbit, D)


@lru_cache(maxsize=None)
def _ssm_interp_schur(orbit, D):
    family, n, r = orbit.family, orbit.n, orbit.r
    if r == 0:
        return _by_additivity(lambda o: ssm_interp_schur(o, D), orbit, {(): 1})
    lam, coeff = inside_weights(family, r)
    inner = ssm_interp_schur(OrbitId(family, n - r, 0), D) if r < n else {(): 1}
    inner = {mu: coeff * c for mu, c in inner.items()}
    inside = [(i, j, -1) for i, j in weight_pairs(family, r)]
    return MappingProxyType(pushforward_schur(
        n, r, inner, lam, inside, cross=((0, 1, 1),), max_deg=D))


def _by_additivity(orbit_class, orbit, total):
    """The open orbit's class: total minus the classes of the other orbits."""
    family, n = orbit.family, orbit.n
    rest = [orbit_class(OrbitId(family, n, m)) for m in coranks(family, n) if m]
    return MappingProxyType(add_schur(total, *rest, coeffs=[1] + [-1] * len(rest)))


@lru_cache(maxsize=None)
def chern_schur(family, n):
    """c(V) in Schur form, exact and read-only.

    c(V_n) is c(V_{n-1}) in a_2..a_n times prod_{j>1} (1 + a_1 + a_j), and
    (1 + 2a_1) for sym; clearing with prod_{j>1} (a_1 - a_j) and summing over
    the n choices of a_1 gives n c(V_n), whose division by n is checked.
    """
    if n == 0:
        return MappingProxyType({(): 1})
    inside = [(i, j, 1) for i, j in weight_pairs(family, 1)]
    n_cv = pushforward_schur(n, 1, chern_schur(family, n - 1), inside=inside,
                             cross=((1, 1, 1), (0, -1, 1)))
    return MappingProxyType({lam: exact_int(Fraction(c, n), f"c(V) coefficient of s{lam}")
                             for lam, c in n_cv.items()})


@dataclass
class WFunction:
    """An orbit's interpolation polynomial: exact, symmetric, integral."""

    orbit: OrbitId
    poly: Poly

    def top_degree(self):
        return self.poly.total_degree()

    def expected_top_degree(self):
        n, r = self.orbit.n, self.orbit.r
        if self.orbit.family is Family.WEDGE:
            return (n * n - 2 * n + r) // 2
        return n * (n + 1) // 2 - (n - r + 1) // 2


def w_function(orbit):
    """The W-function of an orbit; equals csm(Sigma) by interpolation."""
    return WFunction(orbit, schur_dict_to_alpha(w_schur(orbit), orbit.n))


def csm_class(orbit, closure=False):
    """csm as a ClassExpr (Schur basis, exact)."""
    if not closure:
        return schur_class("csm", orbit, w_schur(orbit))
    parts = [w_schur(OrbitId(orbit.family, orbit.n, m))
             for m in suborbit_coranks(orbit)]
    return schur_class("csm", orbit, add_schur(*parts), closure=True)


def csm_to_ssm(csm, D):
    """ssm = csm / c(V) by series division in the Chern roots: the test
    oracle for ssm_interp_schur.  Returns a Schur-basis ClassExpr truncated
    at D."""
    family, n = csm.family, csm.n
    cv = TruncSeries(total_chern(family, n, bound=D), D)
    num = TruncSeries(csm.alpha_poly().truncate(D), D)
    coeffs = to_schur_basis(cv.divide_into(num), n)
    return ClassExpr("ssm", "schur", family, n, csm.r, coeffs, D, csm.closure)


def ssm_interp(orbit, D, closure=False):
    """ssm via the interpolation route, as a Schur-basis ClassExpr."""
    ranks = suborbit_coranks(orbit) if closure else (orbit.r,)
    parts = [ssm_interp_schur(OrbitId(orbit.family, orbit.n, m), D) for m in ranks]
    return schur_class("ssm", orbit, add_schur(*parts), trunc=D, closure=closure)


def ssm_stable_schur(family, r, D):
    """Stable Schur coefficients of ssm(Sigma_{., r}) through degree D.

    Coefficients of partitions with more than n parts are invisible at level
    n; by stability they are recovered by recomputing at the smallest level
    n' >= max(r, D) of matching parity.  Level-n coefficients of partitions
    with at most n parts agree with the stable ones.
    """
    family = as_family(family)
    n = max(r, D, 1)
    if family is Family.WEDGE and (n - r) % 2 != 0:
        n += 1
    return dict(ssm_interp_schur(OrbitId(family, n, r), D))


# -- direct evaluation of the defining sum (independent oracle) --------

def _pair_blocks(k):
    """Standard blocks (1,2),(3,4),... among 1..k; odd k leaves k unpaired."""
    return [(2 * b - 1, 2 * b) for b in range(1, k // 2 + 1)]


def _inner_stabilizer(family, k):
    m = k // 2
    return (2 ** m) * factorial(m) if family is Family.WEDGE else factorial(m)


def _f_val(x, y):
    return (1 + x + y) * (x + y) / (x - y)


@lru_cache(maxsize=None)
def _perms_with_sign(k):
    out = []
    for p in itertools.permutations(range(k)):
        inv = sum(1 for i in range(k) for j in range(i + 1, k) if p[i] > p[j])
        out.append((p, -1 if inv % 2 else 1))
    return out


def w_inner_value(family, k, vals):
    """Evaluate the inner symmetrized sum at exact rational points.

    Uses the factorization: every permutation term shares the full product
    of pair factors up to sign, so the sum is a common factor times a signed
    sum of block-factor products over all permutations.
    """
    family = as_family(family)
    if k == 0:
        return Fraction(1)
    vals = [Fraction(v) for v in vals]
    common = Fraction(1)
    for i in range(k):
        for j in range(i + 1, k):
            common *= _f_val(vals[i], vals[j])

    blocks = _pair_blocks(k)
    if family is Family.WEDGE:
        def g(a, b):
            return 1 / _f_val(a, b)
    else:
        def g(a, b):
            return -b * (1 + 2 * a) * (1 - a + b) / ((a + b) * (1 + a + b))

    total = Fraction(0)
    for p, sign in _perms_with_sign(k):
        term = Fraction(sign)
        for (x, y) in blocks:
            term *= g(vals[p[x - 1]], vals[p[y - 1]])
        total += term
    return common * total / _inner_stabilizer(family, k)


def w_value(orbit, vals):
    """Evaluate W_{n,r} at a point with pairwise distinct coordinates."""
    family, n, r = orbit.family, orbit.n, orbit.r
    vals = [Fraction(v) for v in vals]
    if len(vals) != n:
        raise ValueError(f"need {n} coordinates")
    total = Fraction(0)
    for I in itertools.combinations(range(n), r):
        Iset = set(I)
        rest = [i for i in range(n) if i not in Iset]
        term = w_inner_value(family, n - r, [vals[i] for i in rest])
        if family is Family.SYM:
            for x in range(len(I)):
                for y in range(x, len(I)):
                    term *= vals[I[x]] + vals[I[y]]
        else:
            for x in range(len(I)):
                for y in range(x + 1, len(I)):
                    term *= vals[I[x]] + vals[I[y]]
        for i in I:
            for j in rest:
                term *= (vals[i] + vals[j]) * (1 + vals[i] + vals[j]) / (vals[i] - vals[j])
        total += term
    return total


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
    for m in range(n % 2, n + 1, 2):
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
