"""Schur polynomials and conversions between the alpha, Chern and Schur bases.

Conventions: s_lambda is the ordinary Schur polynomial in the Chern roots
(s_11 = sum_{i<j} a_i a_j, s_2 = sum_{i<=j} a_i a_j), and c_k denotes the
k-th elementary symmetric polynomial of the roots.

Classes live in Schur form.  schur_to_chern converts them to the Chern basis
by a unitriangular peel against the Schur expansion of each Chern monomial,
built by vertical Pieri strips (Macdonald, Symmetric Functions, I.3, I.5);
chern_to_schur converts back by the same strips.
monomial_coeffs gives the alpha form from the monomial basis: the
coefficient of m_mu is a sum of Kostka numbers (I.6), each row of them read
off by peeling horizontal strips; schur_dict_to_alpha writes each m_mu out
as its orderings, and emit writes them in display order without that
polynomial.

The Grassmannian pushforward (pushforward_schur) computes the W-functions
and Phi c(V), exact or cut at a degree; every factor it takes is a
polynomial, and both ssm routes divide a cut class by c(V) afterwards
(interp.divide_by_cv).  Its state holds, for each I-exponent, the Schur
polynomials in a_J that multiply that monomial in a_I; a cross factor
enters by vertical Pieri strips (e_k) read from one cached table per
partition (_strip_table), a truncated product is cut by the degree its
factors still to come must add, and the Schur coefficients are read off
once per sorted I-exponent by the bialternant identity.
alternant_schur_coeffs reads them off a full polynomial in the roots, for
K theory.  Both read-offs take each
exponent tuple through one sort-and-sign step (_sort_sign: a^v alternates to
the sign of the sort times a^(sorted v), or to zero on a repeated entry) and
one delta-unshift (_unshift).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import defaultdict
from functools import lru_cache, partial
from itertools import chain, groupby, product
from math import comb, inf
from operator import add as _add
from types import MappingProxyType

from .orbits import alpha_vars, chern_vars, inside_weights
from .poly import Poly, _norm


# -- Schur polynomials ------------------------------------------------

@lru_cache(maxsize=None)
def _kostka_row(lam, n):
    """Read-only {mu: K_{lam, mu}} over the partitions mu with at most n
    parts: the Kostka numbers, counts of the semistandard tableaux of shape
    lam and content mu (Macdonald, I.6).  K is symmetric in the content, so
    the largest part mu_1 is peeled first, as the horizontal strip lam / nu
    of the largest letter: K_{lam, mu} = sum_nu K_{nu, (mu_2, ...)}."""
    if not lam:
        return MappingProxyType({(): 1})
    if len(lam) > n:
        return MappingProxyType({})
    size = sum(lam)
    out = defaultdict(int)
    # lam / nu is a horizontal strip when each nu_i lies in [lam_{i+1}, lam_i]
    for nu in product(*(range(low, high + 1) for high, low in zip(lam, lam[1:] + (0,)))):
        k = size - sum(nu)
        if k:
            for mu, c in _kostka_row(nu[:len(nu) - nu.count(0)], n - 1).items():
                if not mu or mu[0] <= k:
                    out[(k,) + mu] += c
    return MappingProxyType(dict(out))


def monomial_coeffs(coeffs, n):
    """{mu: d_mu}, the nonzero coefficients of the Schur dict coeffs in the
    monomial basis m_mu of n variables: d_mu = sum_lam c_lam K_{lam, mu}
    over the partitions mu with at most n parts (Macdonald, I.6)."""
    d = defaultdict(int)
    for lam, c in coeffs.items():
        if c == 0 or len(lam) > n:
            continue
        for mu, k in _kostka_row(lam, n).items():
            d[mu] += c * k
    return {mu: _norm(c) for mu, c in d.items() if c}


def schur_dict_to_alpha(coeffs, n):
    """Expand {partition: coeff} into a polynomial in a_1..a_n: each m_mu of
    monomial_coeffs is written out as the distinct orderings of mu."""
    terms = {}
    for mu, c in monomial_coeffs(coeffs, n).items():
        terms.update(dict.fromkeys(_orderings(mu + (0,) * (n - len(mu))), c))
    return Poly(alpha_vars(n), terms, _clean=False)


class NotSymmetricError(ValueError):
    """Input polynomial is not symmetric in the required variables."""


def symmetric_schur_coeffs(poly, n):
    """The Schur dict of a symmetric polynomial in a_1..a_n: for f
    symmetric, Alt(f a^delta) / Vandermonde = f, so the bialternant
    read-off of f a^delta (alternant_schur_coeffs) gives its Schur
    coefficients.  Raises NotSymmetricError unless the dict gives poly back
    (schur_dict_to_alpha)."""
    av = alpha_vars(n)
    if poly.vars == av:
        shifted = poly * Poly(av, {_staircase_shift((), n): 1}, _clean=False)
        coeffs = {lam: c for (lam, _), c in alternant_schur_coeffs(shifted, n).items()}
        if schur_dict_to_alpha(coeffs, n) == poly:
            return coeffs
    raise NotSymmetricError(f"not a symmetric polynomial in {', '.join(av)}")


# -- alternant (bialternant) extraction -------------------------------

def alternant_schur_coeffs(poly, n_alt):
    """Schur coefficients of Alt(poly) / Vandermonde over the first n_alt vars.

    Alt is the full signed symmetrization over S_{n_alt} and the Vandermonde
    is prod_{i<j}(a_i - a_j).  By the bialternant identity each monomial
    a^e (e with distinct entries) contributes +-s_{sort(e) - delta}; monomials
    with a repeated exponent cancel.  Trailing variables are passive: the
    result maps (partition, passive exponent tuple) -> coefficient.  Extracted
    per monomial, so truncated input yields truncated output.
    """
    out = defaultdict(int)
    for e, c in poly.terms.items():
        if read := _sort_sign(e[:n_alt]):
            head, sign = read
            out[head, e[n_alt:]] += sign * c
    return {(_unshift(head), tail): _norm(c) for (head, tail), c in out.items() if c}


# -- Grassmannian pushforward -------------------------------------------

def _power_terms(c, q, upto):
    """[(t, coeff)] of (c + x)^q, q >= 0, through x^upto, ascending; c is 0
    or 1."""
    if c == 0:
        return [(q, 1)] if q <= upto else []
    return [(t, comb(q, t)) for t in range(min(q, upto) + 1)]


@lru_cache(maxsize=None)
def _strip_table(mu, m):
    """The vertical Pieri strips on mu in m variables by size: entry k lists
    the partitions nu with at most m parts such that nu/mu is a vertical
    strip of k boxes (no two in a row), k = 0..m, so e_k s_mu is the sum of
    these s_nu (Pieri).  A mu with more than m parts is zero in m variables
    and gets the empty table.

    With mu padded to m parts, a vertical strip adds one box to a prefix of
    each block of equal parts, so it is a composition of k bounded by the
    block lengths.
    """
    if len(mu) > m:
        return ()
    table = [[] for _ in range(m + 1)]
    # block (v, length) with its first j parts raised, zeros dropped
    blocks = [(v, len(list(run))) for v, run in groupby(mu + (0,) * (m - len(mu)))]
    adds = product(*(range(length + 1) for _, length in blocks))
    parts = product(*([(v + 1,) * j + (v,) * (length - j) if v else (1,) * j
                       for j in range(length + 1)] for v, length in blocks))
    for js, pieces in zip(adds, parts):
        table[sum(js)].append(tuple(chain.from_iterable(pieces)))
    return tuple(map(tuple, table))


def _strips(mu, k, m):
    """The k-box row of mu's strip table (see _strip_table)."""
    table = _strip_table(mu, m)
    return table[k] if k < len(table) else ()


def _pieri_mul(state, i, fk, m, bound):
    """state times sum_k fk[k](a_i) e_k(a_J), where fk[k] lists (t, coeff)
    of a polynomial in a_i by ascending t.  Only alpha_i <= alpha_{i-1} is
    made: alpha_{i-1} is final by now."""
    width = 1 + max((t for terms in fk for t, _ in terms), default=0)
    out = {}
    for alpha, row in state.items():
        free = bound - sum(alpha)
        head, ai, tail = alpha[:i], alpha[i], alpha[i + 1:]
        cap = alpha[i - 1] - ai if i else inf
        dests = [None] * width  # t -> the out row of head + (ai + t,) + tail
        for mu, c in row.items():
            room = free - sum(mu)
            table = _strip_table(mu, m)
            for k, terms in enumerate(fk):
                if k > room:
                    break
                top = room - k if room - k < cap else cap
                strips = table[k]
                for t, b in terms:
                    if t > top:
                        break
                    dest = dests[t]
                    if dest is None:
                        a2 = head + (ai + t,) + tail
                        dest = out.get(a2)
                        if dest is None:
                            dest = out[a2] = defaultdict(int)
                        dests[t] = dest
                    cb = c * b
                    for nu in strips:
                        dest[nu] += cb
    return _nonzero(out)


def _nonzero(state):
    """state without its zero coefficients and empty rows."""
    return {alpha: kept for alpha, row in state.items()
            if (kept := {mu: c for mu, c in row.items() if c})}


def pushforward_schur(family, n, r, inner, cross, max_deg=None):
    """Schur coefficients of the sum over the r-subsets I of [n] of
    P_I / prod_{i in I, j not in I} (a_i - a_j) for an orbit's base-subset
    term P: the Gysin formula of a Grassmann bundle.  Nothing is divided
    here: integer inner coefficients give integer Schur coefficients.

    P is given at I = {1..r}, J = {r+1..n} (m = n - r) as the product of
    inner, a Schur dict in a_J; the family's weights a_i + a_j inside I,
    coeff s_lam(a_I) by inside_weights; and prod_{i in I, j in J}
    (c + a_i + s a_j) for each (c, s) of cross, c in {0, 1} and s = +-1.
    So P is symmetric in a_I, and a polynomial.

    The state {alpha: {mu: coeff}} stands for sum coeff a_I^alpha s_mu(a_J):
    a row of Schur coefficients in a_J for each I-exponent.  A partition mu
    with more than m parts is zero in a_J, so such inner terms are dropped
    on entry.  Over J a cross factor is sum_k s^k (c + a_i)^(m - k) e_k(a_J),
    so it enters by vertical Pieri strips: a pass builds each shifted
    exponent once per (alpha, t) and adds into its row, and takes the strips
    of mu for every k from one table (_strip_table), looked up once per
    (alpha, mu).  The sum over I is Alt_n(sum coeff a_I^(alpha + lam +
    delta_r) a_J^(mu + delta_m)) over the Vandermonde, whose Schur
    coefficients the bialternant identity reads off.  A term of degree d
    gives partitions of size d + |lam| - r m, so with max_deg set, products
    are cut at degree max_deg + r m - |lam|.

    The cut looks ahead.  A cross factor with c = 0 is homogeneous of degree
    exactly m in a_i and a_J, and every other factor only adds degree, so a
    key is dropped once its degree plus m for each such pass still to run,
    over every index, passes the cut: nothing it feeds is kept.  These
    degree-exact passes run last on each index, so the others run with that
    much less room.

    Only the descending alpha (alpha_0 >= alpha_1 >= ...) are computed.  P
    is symmetric in a_I (a cut at a total degree keeps it so), so its
    coefficient at (alpha, mu) is that at (sorted alpha, mu).  The cross
    factors commute, so they enter index by index: every factor for a_0,
    then every factor for a_1, and so on; after its passes alpha_i never
    changes again.  Exponents only grow, so two prunes lose nothing that
    feeds a descending key: a pass on i makes no alpha_i above alpha_{i-1},
    and once i is done a key with some later alpha_j > alpha_i is dropped.

    The read-off still sees every ordering of alpha, since the shift by
    lam + delta_r depends on the order, but sorts them once per alpha: the
    distinct orderings plus the shift, sorted, give {head: signed count}
    (see _sorted_heads).  Each (mu, head) is then merged with the strictly
    decreasing tail mu + delta_m: a shared entry kills the term, the sign is
    the parity of the pairs of a head entry below a tail entry, and terms
    are summed per merged exponent tuple, which minus delta_n is the
    partition.
    """
    lam, coeff = inside_weights(family, r)
    m = n - r
    bound = inf if max_deg is None else max_deg + r * m - sum(lam)
    passes = []  # (least degree added, [(t, coeff)] for each k)
    for c, s in cross:
        fk = [[(t, s ** k * b) for t, b in _power_terms(c, m - k, bound)] for k in range(m + 1)]
        passes.append((0 if c else m, fk))
    passes.sort(key=lambda pss: pss[0])  # the degree-exact factors last
    ahead = r * sum(degree for degree, _ in passes)
    row = {mu: coeff * c for mu, c in inner.items() if len(mu) <= m and sum(mu) <= bound - ahead}
    state = {(0,) * r: row} if row else {}
    for i in range(r):
        for degree, fk in passes:
            ahead -= degree
            state = _pieri_mul(state, i, fk, m, bound - ahead)
        state = {alpha: row for alpha, row in state.items() if max(alpha[i:]) == alpha[i]}

    shift = _staircase_shift(lam, r)
    by_mu = defaultdict(lambda: defaultdict(int))
    while state:  # each row is freed once read
        alpha, row = state.popitem()
        heads = _sorted_heads(alpha, shift)
        for mu, c in row.items():
            acc = by_mu[mu]
            for head, k in heads:
                acc[head] += c * k
    by_merged = defaultdict(int)
    for mu, acc in by_mu.items():
        tail = _staircase_shift(mu, m)
        disjoint = set(tail).isdisjoint
        below = partial(bisect_left, tail[::-1])  # how many tail entries lie below h
        for head, c in acc.items():
            if c and disjoint(head):
                # the sign: the parity of the tail entries above each head entry
                odd = (r * m - sum(map(below, head))) & 1
                by_merged[tuple(sorted(head + tail, reverse=True))] += -c if odd else c
    return {_unshift(merged): _norm(c) for merged, c in by_merged.items() if c}


def _staircase_shift(part, k):
    """part padded to k entries, plus delta_k = (k - 1, ..., 1, 0)."""
    return tuple(x + k - 1 - i for i, x in enumerate(part + (0,) * (k - len(part))))


def _unshift(head):
    """The partition head - delta_k of a strictly decreasing k-tuple head."""
    k = len(head)
    part = tuple(x - (k - 1 - i) for i, x in enumerate(head))
    return part[:k - part.count(0)]


def _sort_sign(v):
    """(descending sort of v, sign of the sorting permutation), or None when
    an entry of v repeats: a^v alternates to sign * a^(sorted v), or to 0."""
    if len(set(v)) < len(v):
        return None
    odd = sum(x < y for k, x in enumerate(v) for y in v[k + 1:]) & 1
    return tuple(sorted(v, reverse=True)), -1 if odd else 1


def _sorted_heads(alpha, shift):
    """[(head, count)]: the descending sort of each distinct ordering of alpha
    plus shift that has no repeated entry, with its signs summed."""
    out = defaultdict(int)
    for o in _orderings(alpha):
        if read := _sort_sign(tuple(map(_add, o, shift))):
            out[read[0]] += read[1]
    return [(head, k) for head, k in out.items() if k]


def _orderings(alpha):
    """The distinct orderings of the tuple alpha in descending lex order:
    from the descending sort, each is the previous permutation of the last."""
    cur = sorted(alpha, reverse=True)
    out = [tuple(cur)]
    while True:
        i = len(cur) - 2
        while i >= 0 and cur[i] <= cur[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = bisect_left(cur, cur[i], i + 1) - 1  # the tail ascends: its last entry < cur[i]
        cur[i], cur[j] = cur[j], cur[i]
        cur[i + 1:] = cur[:i:-1]
        out.append(tuple(cur))


# -- Chern <-> Schur by vertical strips -----------------------------------

@lru_cache(maxsize=None)
def _elementary_schur(kvec, n):
    """Read-only Schur dict of c^kvec = prod_k e_k^kvec[k-1] in n variables:
    each factor e_k adds the vertical k-strips (Pieri)."""
    k, rest = _top_factor(kvec)
    if not k:
        return MappingProxyType({(): 1})
    out = defaultdict(int)
    _add_vertical_strips(out, _elementary_schur(rest, n), k, n)
    return MappingProxyType(dict(out))


def _top_factor(kvec):
    """(k, rest) with c^kvec = c_k c^rest and k the largest index of a
    factor, or (0, kvec) for the constant monomial."""
    k = next((i for i in range(len(kvec), 0, -1) if kvec[i - 1]), 0)
    return (k, kvec[:k - 1] + (kvec[k - 1] - 1,) + kvec[k:]) if k else (0, kvec)


def _add_vertical_strips(out, coeffs, k, n):
    """Add e_k times the Schur dict coeffs into out: each s_mu gives the
    s_nu of its vertical k-strips (Pieri)."""
    for mu, c in coeffs.items():
        if c:
            for nu in _strips(mu, k, n):
                out[nu] += c


def schur_to_chern(coeffs, n):
    """A Schur dict rewritten in c_1..c_n (partitions longer than n vanish).

    Unitriangular peel: c^kvec with kvec_i = lam_i - lam_{i+1} is s_lam plus
    Schur polynomials of partitions of the same size below lam in dominance,
    hence below it in lex order, so the largest lam by (size, lex) of what
    is left is peeled off with its coefficient.
    """
    work = {lam: c for lam, c in coeffs.items() if c and len(lam) <= n}
    heap = [(-sum(lam), tuple(-x for x in lam)) for lam in work]
    heapq.heapify(heap)
    terms = {}
    while heap:
        lam = tuple(-x for x in heapq.heappop(heap)[1])
        c = work.pop(lam, 0)
        if not c:
            continue
        padded = lam + (0,) * (n + 1 - len(lam))
        kvec = tuple(padded[i] - padded[i + 1] for i in range(n))
        terms[kvec] = _norm(c)
        for nu, k in _elementary_schur(kvec, n).items():
            if nu == lam:
                continue
            if nu not in work:
                heapq.heappush(heap, (-sum(nu), tuple(-x for x in nu)))
            work[nu] = work.get(nu, 0) - c * k
    return Poly(chern_vars(n), terms, _clean=False)


def chern_to_schur(p, n):
    """Schur coefficients {partition: coeff} of a polynomial in c_1..c_n.

    Each monomial is e_k c^rest with e_k its factor of largest index
    (_top_factor).  The Schur expansions of the rests are summed per k, and
    each sum is multiplied by e_k once, so no monomial of the top degrees
    needs an expansion of its own."""
    by_top = [defaultdict(int) for _ in range(n + 1)]
    for kvec, c in p.terms.items():
        k, rest = _top_factor(kvec)
        acc = by_top[k]
        for lam, m in _elementary_schur(rest, n).items():
            acc[lam] += c * m
    out = by_top[0]
    for k in range(1, n + 1):
        _add_vertical_strips(out, by_top[k], k, n)
    return {lam: _norm(c) for lam, c in out.items() if c}


def chern_weighted_degree(exps):
    """Total alpha-degree of a Chern monomial: sum i * exp_i."""
    return sum((i + 1) * x for i, x in enumerate(exps))

