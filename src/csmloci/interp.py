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
W_{n,r} needs only W_{n-r,0}.  c(V) in Schur form (chern_schur) is
coeff s_lam(a + 1/2), and comes from one box-removal recurrence: with
D = sum_i d/da_i, s_lam(a + t) = exp(t D) s_lam(a), and D takes off one
box of content c with weight n + c.  Lascoux's determinants
(oracles.chern_schur_bareiss) are the test oracle.  Each class of V_n
(c(V), W and the sieve's Phi c(V)) is one cached function, exact, or cut
at D by a trailing cut (D,) that it passes on to every class it is built
from.

The ssm class through degree D is W_{n,r} / c(V); both routes divide by
c(V) through over_cv, the one bound check, by one long division in
c_1..c_n (divide_by_cv) over packed Chern monomials, which the schur
module converts to and from on its partition index of n.  One rule
(_cut_at) picks the cut of both the class and c(V): the exact class once D
reaches the top degree of c(V).
Closure classes and the Chern-Mather class are sums of orbit classes over
the orbits in the closure (closure_schur).

The interpolation axioms (verify_axioms) are checked on the Schur form, by
a route that shares nothing with the kernel.  One rule (_probe) builds the
probe Sigma_{n,m} from the weights of V: the roots go to (s_1, -s_1, ...,
s_h, -s_h, b_1..b_m), h = (n - m)/2, each weight to the sum of its two
roots, a normal weight when both are b's and else a tangent factor 1 + w
unless w = 0; c(T)e(N) is the product of the factors and the degree bound
their number.  Each s_lam is restricted by branching, one pair per step:
s_lam(x, -x, rest) = sum_mu x^|lam/mu| c(lam, mu) s_mu(rest), with
c(lam, mu) = 0 or +-1 (_pair_branching), cached per (lam, h, m).  The probe
m = n restricts by the identity and is read off the Schur dict.  Axiom 2
takes one trial division per class of tangent factors: the image of a
symmetric class is invariant under a group that permutes each class
transitively.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import comb, factorial
from types import MappingProxyType

from .classes import add_schur, schur_class
from .orbits import (Family, OrbitId, alpha_vars, ambient_dim, coranks, inside_weights,
                     suborbit_coranks)
from .partitions import partition
from .poly import ExactDivisionError, Poly, _norm, product
from .schur import (packed_chern_rows, packed_chern_to_schur, pushforward_schur,
                    schur_dict_to_alpha, symmetric_schur_coeffs)


# -- the W-functions ----------------------------------------------------

@lru_cache(maxsize=None)
def w_schur(orbit, *cut):
    """Schur coefficients of W_{n,r} = csm(Sigma_{n,r}), read-only: exact,
    or through degree D when cut is (D,).

    For r >= 1 the kernel pushes the base-subset term forward, its inner
    W_{n-r,0} cut alike; the open orbit is c(V), cut alike (chern_schur),
    minus the other orbits' classes.  Every call passes cut on as *cut, so
    one class has one cache key.
    """
    family, n, r = orbit.family, orbit.n, orbit.r
    if r == 0:
        return _by_additivity(lambda o: w_schur(o, *cut), orbit, chern_schur(family, n, *cut))
    inner = w_schur(OrbitId(family, n - r, 0), *cut) if r < n else {(): 1}
    # over I x J: (a_i + a_j)(1 + a_i + a_j)
    return MappingProxyType(pushforward_schur(family, n, r, inner, ((0, 1), (1, 1)), *cut))


@lru_cache(maxsize=None)
def ssm_interp_schur(orbit, D):
    """Schur coefficients of ssm(Sigma_{n,r}) = W_{n,r} / c(V) through
    degree D, read-only (over_cv)."""
    return over_cv(w_schur, orbit, D)


def _cut_at(family, n, D):
    """The cut that takes a class of V_n through degree D: (D,), or () from
    D = ambient_dim(family, n) on, the degree of c(V_n), which no class of
    V_n passes, so that there the cut class is the exact one."""
    return (D,) if D < ambient_dim(family, n) else ()


def over_cv(orbit_class, orbit, D):
    """orbit_class(orbit, *cut) / c(V_n) through degree D, read-only, with
    the cut of _cut_at.  c(V) itself, as Phi_{n,0} c(V) is, gives 1 without a
    division."""
    if D < 0:
        raise ValueError("truncation bound must be non-negative")
    family, n = orbit.family, orbit.n
    cut = _cut_at(family, n, D)
    coeffs = orbit_class(orbit, *cut)
    return MappingProxyType({(): 1} if coeffs is chern_schur(family, n, *cut) else
                            divide_by_cv(coeffs, family, n, D))


def _by_additivity(orbit_class, orbit, total):
    """The open orbit's class: total minus the class of the closure of the
    next orbit, which holds every other orbit."""
    rest = OrbitId(orbit.family, orbit.n, suborbit_coranks(orbit)[1])
    return MappingProxyType(add_schur(total, closure_schur(orbit_class, rest), coeffs=(1, -1)))


@lru_cache(maxsize=None)
def chern_schur(family, n, *cut):
    """c(V_n) in Schur form by lex order, read-only: exact, or through
    degree D when cut is (D,).

    With y_i = 1/2 + a_i, c(V) = prod (y_i + y_j) = coeff s_lam(y) for
    (lam, coeff) = inside_weights(family, n).  Let D = sum_i d/da_i.  Then
    s_lam(a + t) = exp(t D) s_lam(a), and D takes off one box:
    D s_nu = sum (n + c(nu/mu)) s_mu over the mu = nu less one box, c the
    content (column less row) of that box.  So the coefficient of s_mu in
    c(V) is coeff g(mu) / (2^k k!), k = |lam/mu|, where g(lam) = 1 and
    g(mu) = sum g(nu) (n + c(nu/mu)) over the nu = mu plus one box inside
    lam.  g is built one size at a time from lam down to (), every size
    within the cut is divided exactly (checked), and the dict is sorted
    once.  The walk visits every partition inside lam whatever the cut, so
    a cut c(V) costs about what the exact one does.
    oracles.chern_schur_bareiss, one Lascoux determinant per mu
    (Macdonald, Symmetric Functions, I.3 Ex. 10), is the reference."""
    lam, coeff = inside_weights(family, n)
    top = sum(lam)
    max_size = cut[0] if cut else top
    level, out = {lam: 1}, {}
    for k in range(top + 1):  # level: {mu: g(mu)} over the mu of size top - k
        if top - k <= max_size:
            scale = factorial(k) << k
            for mu, g in level.items():
                value, rest = divmod(coeff * g, scale)
                if rest:
                    raise ExactDivisionError(f"c(V) coefficient of s{mu} is not an integer: "
                                             f"{Fraction(coeff * g, scale)}")
                out[mu] = value
        below = defaultdict(int)
        for nu, g in level.items():
            for i, part in enumerate(nu):
                if i + 1 == len(nu) or nu[i + 1] < part:  # a box to take off row i
                    below[nu[:i] + (part - 1,) * (part > 1) + nu[i + 1:]] += g * (n + part - 1 - i)
        level = below
    return MappingProxyType(dict(sorted(out.items())))


def divide_by_cv(coeffs, family, n, D):
    """Schur coefficients of f through degree D, given those of h = f c(V_n)
    through degree D: h in c_1..c_n as packed rows by weighted degree
    (schur.packed_chern_rows), long division by g = c(V_n) through weighted
    degree D (_cv_rows), and back (schur.packed_chern_to_schur).  g has
    constant term 1, so degree by degree f_d = h_d - sum_{k=1..d} g_k f_{d-k},
    and a product of two packed monomials is the sum of their keys."""
    g = _cv_rows(family, n, D)
    f = []
    for d, row in enumerate(packed_chern_rows(coeffs, n, D)):
        fd = defaultdict(int, row)
        for k in range(1, d + 1):
            for key, c in g[k]:
                for key2, c2 in f[d - k]:
                    fd[key + key2] -= c * c2
        f.append([(key, c) for key, c in fd.items() if c])
    return packed_chern_to_schur(chain.from_iterable(f), n, D)


@lru_cache(maxsize=None)
def _cv_rows(family, n, D):
    """c(V_n) in c_1..c_n through weighted degree D, read-only: row d holds
    its (packed monomial, coeff) of weighted degree d (packed_chern_rows),
    from c(V) with the cut of _cut_at, so that from the top degree of c(V)
    on it reads the exact chern_schur(family, n)."""
    cv = chern_schur(family, n, *_cut_at(family, n, D))
    return tuple(map(tuple, packed_chern_rows(cv, n, D)))


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


# -- the probes and the interpolation axioms ----------------------------

@lru_cache(maxsize=None)
def _probe(n, m):
    """(vars, roots, tangent factors, representatives, c(T)e(N), degree
    bound) at the probe Sigma_{n,m} of the wedge family, all read-only.

    The roots map a_1..a_n to (s_1, -s_1, ..., s_h, -s_h, b_1..b_m) over
    vars = (s_1..s_h, b_1..b_m), h = (n - m)/2, where b_j keeps the name
    a_(n-m+j).  Each weight a_i + a_j of V goes to the sum w of its roots: a
    normal weight when both are b's, else the tangent factor 1 + w unless
    w = 0.  c(T)e(N) is the product of the factors, of degree their number.

    The image of a symmetric polynomial at the probe is invariant under
    permutations of the b, permutations of the pairs and each s_i -> -s_i.
    These act transitively on each class of tangent factors, 1 +- s_i +- s_j
    and 1 +- s_i + b_j, and distinct linear factors each divide exactly when
    their product does, so the first factor of each class stands for c(T)
    in axiom 2 (as in ktheory._over_pairs)."""
    OrbitId(Family.WEDGE, n, m)  # refuses an (n, m) that names no wedge orbit
    h = (n - m) // 2
    rvars = tuple(f"s{i}" for i in range(1, h + 1)) + alpha_vars(n)[n - m:]
    roots = tuple(Poly.linear(rvars, **{rvars[i // 2]: -1 if i & 1 else 1}).read_only()
                  if i < 2 * h else Poly.variable(rvars, rvars[i - h]).read_only()
                  for i in range(n))
    tangent, normal, reps = [], [], {}
    for i, j in combinations(range(n), 2):
        weight = roots[i] + roots[j]
        if i >= 2 * h:
            normal.append(weight)
        elif not weight.is_zero():
            tangent.append((weight + 1).read_only())
            reps.setdefault(j >= 2 * h, tangent[-1])
    return (rvars, roots, tuple(tangent), tuple(reps.values()),
            product(tangent + normal, rvars).read_only(), len(tangent) + len(normal))


def _pair_branching(lam):
    """[(mu, c(lam, mu))] over the mu with c(lam, mu) != 0, where
    s_lam(x, -x, rest) = sum_mu x^|lam/mu| c(lam, mu) s_mu(rest).

    c(lam, mu) sums (-1)^|nu/mu| over the nu for which lam/nu and nu/mu are
    horizontal strips (Macdonald, I.5).  Row i of nu ranges over
    [max(lam_{i+1}, mu_i), min(lam_i, mu_{i-1})], independently of the
    other rows, so c(lam, mu) is a product of one alternating run per row:
    0 for an empty or even run, else (-1)^(its first entry - mu_i).  Row i
    of mu is built after row i - 1, from lam_{i+2} up (below it row i + 1's
    run is empty)."""
    padded, rows = lam + (0, 0), [((), 1)]
    for i, top in enumerate(lam):
        grown = []
        for mu, sign in rows:
            cap = min(top, mu[-1]) if mu else top
            for part in range(padded[i + 2], top + 1):
                first = max(padded[i + 1], part)
                if first <= cap and not (cap - first) & 1:
                    grown.append((mu + (part,), -sign if (first - part) & 1 else sign))
        rows = grown
    return [(mu[:len(mu) - mu.count(0)], sign) for mu, sign in rows]


@lru_cache(maxsize=None)
def _restricted_schur(lam, h, m):
    """Read-only terms of s_lam(s_1, -s_1, ..., s_h, -s_h, b_1, ..., b_m)
    over the exponents of (s_1..s_h, b_1..b_m): one pair peeled per step
    (_pair_branching), and s_mu(b) written out in monomials at h = 0."""
    if len(lam) > 2 * h + m:
        return MappingProxyType({})
    if h == 0:
        return MappingProxyType(schur_dict_to_alpha({lam: 1}, m).terms)
    size = sum(lam)
    out = defaultdict(int)
    for mu, sign in _pair_branching(lam):
        head = (size - sum(mu),)
        for e, c in _restricted_schur(mu, h - 1, m).items():
            out[head + e] += sign * c
    return MappingProxyType({e: c for e, c in out.items() if c})


def restrict_schur(coeffs, probe):
    """The Schur dict coeffs restricted to the torus of the probe orbit, a
    polynomial in _probe's vars, by _restricted_schur."""
    n, m = probe.n, probe.r
    out = defaultdict(int)
    for lam, c in coeffs.items():
        for e, k in _restricted_schur(lam, (n - m) // 2, m).items():
            out[e] += c * k
    return Poly(_probe(n, m)[0], {e: _norm(c) for e, c in out.items() if c}, _clean=False)


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


def _divides(f, poly):
    try:
        poly.exact_divide(f)
    except ExactDivisionError:
        return False
    return True


def verify_axioms(orbit, candidate=None):
    """Check the interpolation axioms for a candidate csm class: W_orbit by
    default, else a Schur dict or a symmetric Poly in a_1..a_n (read into
    Schur form once, schur.symmetric_schur_coeffs); each key is read by
    partitions.partition, and keys of one partition add up.

    For every orbit Omega of the same representation: equality with
    c(T)e(N) at Omega = Sigma, exact divisibility of the restriction by
    c(T_Omega), the strict degree bound for Omega != Sigma, and vanishing
    on orbits not contained in the closure.  The probe m = n restricts by
    the identity and is checked on the Schur dict: c(T)e(N) = e(V) =
    s_(n-1,...,1), no tangent factor, and the degree is the largest |lam|.
    """
    if orbit.family is not Family.WEDGE:
        raise ValueError("axiom verification is only available for the wedge family")
    n, r = orbit.n, orbit.r
    if candidate is None:
        candidate = w_schur(orbit)
    elif isinstance(candidate, Poly):
        candidate = symmetric_schur_coeffs(candidate, n)
    coeffs = add_schur(*({partition(lam): c} for lam, c in candidate.items()))
    coeffs = {lam: c for lam, c in coeffs.items() if len(lam) <= n}
    checks = []
    for m in coranks(Family.WEDGE, n):
        entry = AxiomCheck(OrbitId(Family.WEDGE, n, m))
        if m == n:
            if m == r:
                entry.axiom1 = coeffs == dict([inside_weights(Family.WEDGE, n)])
            entry.axiom2 = True
            if m != r:
                entry.axiom3 = max(map(sum, coeffs), default=-1) < comb(n, 2)
        else:
            _, _, _, factors, tangent_normal, bound = _probe(n, m)
            image = restrict_schur(coeffs, entry.probe)
            if m < r:
                entry.vanishing = image.is_zero()
            if m == r:
                entry.axiom1 = image == tangent_normal
            entry.axiom2 = all(_divides(f, image) for f in factors)
            if m != r:
                entry.axiom3 = image.total_degree() < bound
        checks.append(entry)
    return AxiomReport(orbit, checks)
