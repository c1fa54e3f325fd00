"""Schur polynomials and conversions between the alpha, Chern and Schur bases.

Conventions: s_lambda is the ordinary Schur polynomial in the Chern roots
(s_11 = sum_{i<j} a_i a_j, s_2 = sum_{i<=j} a_i a_j), and c_k denotes the
k-th elementary symmetric polynomial of the roots.

Classes live in Schur form.  A partition lam with at most n parts is also
an int, its tail mask: bit x is set for each entry x of lam + delta_n
(_tail_mask).  The vertical Pieri strips (Macdonald, Symmetric Functions,
I.3) are bit arithmetic on that mask (_vertical_strips).  The Grassmannian
pushforward keys its rows by these masks, with their strips in one table
per n, each entry built on its first lookup (_mask_strips).  Every
conversion between Schur and Chern form works on one partition index per n
(_partition_space): the partitions with at most n parts in (size, lex)
order, where index i names both s_lam and the Chern monomial c^kvec with
kvec_j = lam_j - lam_(j+1), and the strips on i are those of its mask, as
indices (I.5).  The Schur expansion of the monomial, its row, is built on
demand by those strips, and holds lam and lower indices only.
schur_to_chern peels rows off a dense list from the highest index down;
chern_to_schur sums the rows of the monomials less their top factor e_k and
multiplies each sum by e_k once.  packed_chern_rows and
packed_chern_to_schur do the same for the division by c(V), with each Chern
monomial packed into one int.
monomial_coeffs gives the alpha form from the monomial basis: the
coefficient of m_mu is a sum of Kostka numbers (I.6), each row of them read
off by peeling horizontal strips; schur_dict_to_alpha writes each m_mu out
as its orderings, and emit writes them in display order without that
polynomial.

The Grassmannian pushforward (pushforward_schur) computes the W-functions
and Phi c(V), exact or cut at a degree; every factor it takes is a
polynomial, and both ssm routes divide a cut class by c(V) afterwards
(interp.divide_by_cv).  Its state holds, for each I-exponent, the Schur
polynomials in a_J that multiply that monomial in a_I, each named by its
tail mask; a cross factor enters by the vertical strips (e_k) of the mask
table, a truncated product is cut by the degree its factors still to come
must add, and the Schur coefficients are read off once per sorted
I-exponent by the bialternant identity.  A cross factor with c = 0 is
homogeneous of degree m and has its own pass (_exact_pieri_mul), which keeps
or drops each term of mu whole.  Both passes find the out row of each power
of a_i once per alpha, collect the mu of a row that fit under the cut once,
and then run k, the size of the strip, outside mu.  The state is built one
alpha_0 row at a time: after the passes on a_0, each row runs alone through
the passes on a_1..a_(r-1) and is read off before the next row starts.
That is exact, since those passes never change alpha_0 and the read-off is
a sum over rows, and the transient state is then one row's, not the whole
state.
alternant_schur_coeffs reads them off a full polynomial in the roots, for
K theory.  Both read-offs write each strictly decreasing exponent tuple as
the bitmask of its entries: one sort-and-sign step (_alternant_mask) takes
an exponent tuple v to the mask and sign with a^v = sign a^(sorted v) under
alternation, or to None on a repeated entry, where a^v alternates to zero;
each mask kept is decoded once, as the partition sorted v - delta
(_mask_partition).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import defaultdict
from functools import lru_cache
from itertools import accumulate, chain, compress, product
from math import comb, inf
from operator import add as _add, sub
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
    coefficients.  Raises NotSymmetricError for a negative exponent, and
    unless the dict gives poly back (schur_dict_to_alpha)."""
    av = alpha_vars(n)
    if poly.vars == av and min(chain.from_iterable(poly.terms), default=0) >= 0:
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
    with a repeated exponent cancel.  Each head e[:n_alt] goes through the
    mask step (_alternant_mask), and terms are summed per (mask, passive
    exponents) before each mask is decoded once.  Trailing variables are
    passive: the result maps (partition, passive exponent tuple) ->
    coefficient.  Extracted per monomial, so truncated input yields
    truncated output.
    """
    out = defaultdict(int)
    for e, c in poly.terms.items():
        if read := _alternant_mask(e[:n_alt]):
            mask, sign = read
            out[mask, e[n_alt:]] += sign * c
    return {(_mask_partition(mask, n_alt), tail): _norm(c)
            for (mask, tail), c in out.items() if c}


# -- Grassmannian pushforward -------------------------------------------

def _pieri_mul(state, i, fk, masks, bound):
    """state times sum_k fk[k](a_i) e_k(a_J), where fk[k] lists (t, coeff)
    of a polynomial in a_i by ascending t, and the rows of state are keyed
    by tail mask, with (size, strips) of each in masks (_mask_strips).  Only
    alpha_i <= alpha_{i-1} is made: alpha_{i-1} is final by now.

    Per alpha, (room, strips, coeff) is collected once for each mu with
    room = free - |mu| >= 0, free the cut less |alpha|, and the out row of
    each t is found once, for t up to width - 1, alpha_{i-1} - alpha_i and
    the largest room.  Each of those rows gets a term, when fk[0] lists
    every t below width, as pushforward_schur's factors do: no out row is
    empty.  Then k runs outside mu, over the mu with room >= k, and t up to
    room - k and alpha_{i-1} - alpha_i."""
    width = 1 + max((t for terms in fk for t, _ in terms), default=0)
    out = {}
    for alpha, row in state.items():
        free = bound - sum(alpha)
        kept = []
        for mu, c in row.items():
            size, table = masks[mu]
            room = free - size
            if room >= 0:
                kept.append((room, table, c))
        if not kept:
            continue
        head, ai, tail = alpha[:i], alpha[i], alpha[i + 1:]
        cap = alpha[i - 1] - ai if i else inf
        dests = []  # t -> the out row of head + (ai + t,) + tail
        for t in range(min(width - 1, cap, max(room for room, _, _ in kept)) + 1):
            dest = out.get(a2 := head + (ai + t,) + tail)
            if dest is None:
                dest = out[a2] = defaultdict(int)
            dests.append(dest)
        for k, terms in enumerate(fk):
            for room, table, c in kept:
                if room < k:
                    continue
                top = room - k if room - k < cap else cap
                nus = table[k]
                for t, b in terms:
                    if t > top:
                        break
                    dest = dests[t]
                    cb = c * b
                    for nu in nus:
                        dest[nu] += cb
    return out


def _exact_pieri_mul(state, i, s, m, masks, bound):
    """state times sum_k s^k a_i^(m - k) e_k(a_J), a cross factor with
    c = 0 and s = +-1, which is homogeneous of degree m; the rows as in
    _pieri_mul.  The terms of (alpha, mu) are kept whole when
    |mu| <= free - m, free the cut less |alpha|, and else dropped whole: the
    (strips, coeff) of the mu kept are collected once per alpha, and an
    alpha with none makes no row.  k runs outside mu, from
    max(0, m - (alpha_{i-1} - alpha_i)), so that no alpha_i passes
    alpha_{i-1}, to m, with the out row of each k looked up once; e_k is
    not zero in m variables, so that row is not empty.  An odd k with
    s = -1 subtracts and every other k adds, so no term is multiplied."""
    out = {}
    for alpha, row in state.items():
        room = bound - sum(alpha) - m
        if room < 0:
            continue
        kept = []
        for mu, c in row.items():
            size, table = masks[mu]
            if size <= room:
                kept.append((table, c))
        if not kept:
            continue
        head, ai, tail = alpha[:i], alpha[i], alpha[i + 1:]
        for k in range(max(0, m - alpha[i - 1] + ai) if i else 0, m + 1):
            dest = out.get(a2 := head + (ai + m - k,) + tail)
            if dest is None:
                dest = out[a2] = defaultdict(int)
            if s < 0 and k & 1:
                for table, c in kept:
                    for nu in table[k]:
                        dest[nu] -= c
            else:
                for table, c in kept:
                    for nu in table[k]:
                        dest[nu] += c
    return out


def pushforward_schur(family, n, r, inner, cross, max_deg=None):
    """Schur coefficients of the sum over the r-subsets I of [n], r >= 1, of
    P_I / prod_{i in I, j not in I} (a_i - a_j) for an orbit's base-subset
    term P: the Gysin formula of a Grassmann bundle.  Nothing is divided
    here: integer inner coefficients give integer Schur coefficients.

    P is given at I = {1..r}, J = {r+1..n} (m = n - r) as the product of
    inner, a Schur dict in a_J; the family's weights a_i + a_j inside I,
    coeff s_lam(a_I) by inside_weights; and prod_{i in I, j in J}
    (c + a_i + s a_j) for each (c, s) of cross, c in {0, 1} and s = +-1.
    So P is symmetric in a_I, and a polynomial.

    The state {alpha: {mu: coeff}} stands for sum coeff a_I^alpha s_mu(a_J):
    a row of Schur coefficients in a_J for each I-exponent, with mu named
    by its tail mask, the set bits of mu + delta_m (_tail_mask).  A
    partition with more than m parts is zero in a_J, so such inner terms are
    dropped on entry, and the rest are mapped to their masks once.  Over J
    a cross factor is sum_k s^k (c + a_i)^(m - k) e_k(a_J), so it enters by
    vertical Pieri strips, with the size of mu and its strips for every k
    taken from the mask table (_mask_strips) once per (alpha, mu): a factor
    with c = 1 by _pieri_mul, one with c = 0 by its own degree-exact pass
    (_exact_pieri_mul).  Each pass finds its out rows, one per power of a_i,
    once per alpha, collects the mu of the row that fit under the cut once,
    and runs k outside mu, so no term looks up its out row.  The sum over
    I is Alt_n(sum coeff a_I^(alpha + lam + delta_r) a_J^(mu + delta_m))
    over the Vandermonde, whose Schur coefficients the bialternant identity
    reads off.  A term of degree d gives partitions of size
    d + |lam| - r m, so with max_deg set, products are cut at degree
    max_deg + r m - |lam|.

    The cut looks ahead.  A cross factor with c = 0 is homogeneous of degree
    exactly m in a_i and a_J, and every other factor only adds degree, so a
    key is dropped once its degree plus m for each such pass still to run,
    over every index, passes the cut: nothing it feeds is kept.  These
    degree-exact passes run last on each index, so the others run with that
    much less room, and each keeps or drops a term of mu whole.

    Only the descending alpha (alpha_0 >= alpha_1 >= ...) are computed.  P
    is symmetric in a_I (a cut at a total degree keeps it so), so its
    coefficient at (alpha, mu) is that at (sorted alpha, mu).  The cross
    factors commute, so they enter index by index: every factor for a_0,
    then every factor for a_1, and so on; after its passes alpha_i never
    changes again, and a pass on i makes no alpha_i above alpha_{i-1}.

    The state is built one alpha_0 row at a time.  After the passes on
    index 0 every key is (alpha_0, 0, ..., 0).  Each row is taken out alone,
    run through the passes on indices 1..r-1 and read off into the shared
    sum before the next one starts.  This is exact: a pass on i >= 1 never
    changes alpha_0, and the read-off is a sum over rows.  So the transient
    state is one row's, not the whole state.  Zeros are not removed as they
    arise: the read-off skips them.  No pass makes an empty row: a pass
    makes a row only for an alpha with some mu under the cut, and gives
    each of its out rows a term.

    The read-off still sees every ordering of alpha, since the shift by
    lam + delta_r depends on the order, but sorts them once per alpha: the
    distinct orderings plus the shift give {head mask: signed count}
    (_head_masks), each head a set of r entries written as bits.  A row's
    key mu is its tail's mask, and the parity mask above, kept once per mu,
    has bit v set when an odd number of tail entries lie above v.  A head
    sharing an entry with the tail is killed (head & mu); otherwise the
    merged tuple is head | mu, and its sign is the parity of the pairs of a
    head entry below a tail entry, the parity of head & above; that bit
    picks the head's count or its negative from a pair kept per head.  Each
    term (alpha, mu, head) is added into its merged mask at once, and each
    merged mask is decoded once, minus delta_n, to its partition
    (_mask_partition).
    """
    lam, coeff = inside_weights(family, r)
    m = n - r
    bound = inf if max_deg is None else max_deg + r * m - sum(lam)
    # each c = 1 factor as [(t, coeff)] for each k; the c = 0 ones by s, run last
    shifted = [[[(t, s ** k * comb(m - k, t)) for t in range(min(m - k, bound) + 1)]
                for k in range(m + 1)] for c, s in cross if c]
    exact = [s for c, s in cross if not c]
    row = {_tail_mask(mu, m): coeff * c for mu, c in inner.items()
           if len(mu) <= m and sum(mu) <= bound - r * m * len(exact)}
    masks = _mask_strips(m)

    def passes(state, i):
        """state times every factor on a_i."""
        ahead = (r - i) * m * len(exact)  # the degree the c = 0 passes still add
        for fk in shifted:
            state = _pieri_mul(state, i, fk, masks, bound - ahead)
        for s in exact:
            ahead -= m
            state = _exact_pieri_mul(state, i, s, m, masks, bound - ahead)
        return state

    state = passes({(0,) * r: row}, 0) if row else {}
    shift = _staircase_shift(lam, r)
    aboves = {}
    by_merged = defaultdict(int)
    while state:  # one alpha_0 row at a time
        group = dict([state.popitem()])
        for i in range(1, r):
            group = passes(group, i)
        while group:  # each row is freed once read
            alpha, row = group.popitem()
            heads = [(head, (k, -k)) for head, k in _head_masks(alpha, shift).items()]
            for mu, c in row.items():
                if not c:
                    continue
                above = aboves.get(mu)
                if above is None:
                    above, rest = 0, mu
                    while rest:
                        t = rest.bit_length() - 1
                        above ^= (1 << t) - 1  # bit v: an odd number of tail entries above v
                        rest ^= 1 << t
                    aboves[mu] = above
                for head, signed in heads:  # signed[1]: its count with the sign flipped
                    if not head & mu:
                        by_merged[head | mu] += c * signed[(head & above).bit_count() & 1]
    return {_mask_partition(merged, n): _norm(c) for merged, c in by_merged.items() if c}


def _staircase_shift(part, k):
    """part padded to k entries, plus delta_k = (k - 1, ..., 1, 0)."""
    return tuple(x + k - 1 - i for i, x in enumerate(part + (0,) * (k - len(part))))


def _tail_mask(part, k):
    """The mask with bit x set for each entry x of part + delta_k, part a
    partition with at most k parts."""
    mask = (1 << (k - len(part))) - 1  # the zero parts
    for x in part:
        k -= 1
        mask |= 1 << (x + k)
    return mask


def _vertical_strips(v, m):
    """(size, strips) of the partition mu with at most m parts whose tail
    mask is v (_tail_mask(mu, m)): size is |mu|, the sum of the bit
    positions of v less m (m - 1) / 2, and strips[k], k = 0..m, lists the
    masks of the nu with nu / mu a vertical strip of k boxes, so e_k s_mu is
    the sum of these s_nu (Pieri, Macdonald I.3, on the exponents
    mu + delta_m).

    A run of consecutive set bits of v is a block of equal parts of mu, the
    bottom run, from bit 0, its zero parts.  A vertical strip raises the top
    j bits of each run by one, which adds ((1 << j) - 1) << (top - j) to v,
    with top one past the run's highest bit; k is the sum of the j."""
    size, strips, rest = -comb(m, 2), [[v]], v
    while rest:
        run = rest & ~(rest + (rest & -rest))  # the lowest run of set bits
        rest ^= run
        top, length = run.bit_length(), run.bit_count()
        size += length * (2 * top - length - 1) // 2
        grown = [[] for _ in range(len(strips) + length)]
        for j in range(length + 1):
            raised = ((1 << j) - 1) << (top - j)
            for k, nus in enumerate(strips):
                grown[k + j].extend(nu + raised for nu in nus)
        strips = grown
    return size, strips


@lru_cache(maxsize=None)
def _mask_strips(m):
    """The kernel's {tail mask: (size, strips)} in m variables
    (_vertical_strips, the strips as tuples), each entry built on its first
    lookup; emptying this cache drops the tables."""
    return _MaskStrips(m)


class _MaskStrips(dict):
    __slots__ = ("m",)

    def __init__(self, m):
        super().__init__()
        self.m = m

    def __missing__(self, v):
        size, strips = _vertical_strips(v, self.m)
        entry = self[v] = (size, tuple(map(tuple, strips)))
        return entry


def _alternant_mask(v):
    """(mask, sign) for the exponent vector v, an iterable of nonnegative
    ints, or None when an entry of v repeats: a^v alternates to sign * a^(descending sort
    of v), or to 0, and mask has bit x set for each entry x.  One pass: the
    sign is the parity of the pairs of an entry below a later one."""
    mask = inversions = 0
    for x in v:
        bit = 1 << x
        if mask & bit:
            return None
        inversions += (mask & (bit - 1)).bit_count()
        mask |= bit
    return mask, -1 if inversions & 1 else 1


def _mask_partition(mask, k):
    """The partition v - delta_k of the strictly decreasing k-tuple v whose
    entries are the set bits of mask."""
    part = []
    while mask + 1 != 1 << k:  # else the k entries left are k - 1, ..., 0: zero parts
        top = mask.bit_length() - 1
        k -= 1
        part.append(top - k)
        mask ^= 1 << top
    return tuple(part)


def _head_masks(alpha, shift):
    """{head mask: count}: each distinct ordering of alpha plus shift with
    no repeated entry, by its mask (_alternant_mask), the signs summed."""
    out = defaultdict(int)
    for o in _orderings(alpha):
        if read := _alternant_mask(map(_add, o, shift)):
            out[read[0]] += read[1]
    return {head: k for head, k in out.items() if k}


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


# -- one partition index per n: Pieri strips, Chern <-> Schur -----------

@lru_cache(maxsize=None)
def _partition_space(n):
    """The _PartitionSpace of n variables, grown by the conversions below;
    no caller outside them holds it, so emptying this cache drops it and
    every strip table and row built on it."""
    return _PartitionSpace(n)


class _PartitionSpace:
    """The partitions with at most n parts, indexed in (size, lex) order and
    grown on demand to the largest size asked for, so that an index never
    changes once assigned: parts[i] is partition i, and index maps the tail
    mask of each partition (_tail_mask) to its index.

    Index i of lam (size sizes[i]) also names the Chern monomial c^kvec,
    kvec_j = lam_j - lam_(j+1): its weighted degree is |lam|, and it is
    e_l c^rest, with l = len(lam) its top factor and rest (rests[i]) lam
    less one box from each part.  Its Schur expansion, row(i), is e_l times
    the row of rest, one vertical strip per term (Pieri): s_lam plus
    partitions of the same size below lam in dominance, hence of lower index
    (Macdonald, I.3, I.5).  Rows are built on demand and kept compact, as
    (array of indices, tuple of coefficients), and so are the vertical
    strips on i for every k (strips(i)), read off its tail mask.  The packed
    Chern keys of the division through degree D are kept per D (packing)."""

    __slots__ = ("n", "parts", "index", "sizes", "starts", "rests", "_strips", "_rows",
                 "_packings")

    def __init__(self, n):
        self.n = n
        self.parts, self.index = [()], {(1 << n) - 1: 0}
        self.sizes, self.starts = array("i", [0]), [0, 1]  # starts[d]: first index of size d
        self.rests = array("i", [0])
        self._strips, self._rows, self._packings = [None], [(array("i", [0]), (1,))], {}

    def grow(self, top):
        """Index every partition of size <= top."""
        n, parts, index, rests = self.n, self.parts, self.index, self.rests
        for d in range(len(self.starts) - 1, top + 1):
            for lam in _partitions(d, n, d):
                index[_tail_mask(lam, n)] = len(parts)
                parts.append(lam)
                rests.append(index[_tail_mask(tuple(x - 1 for x in lam if x > 1), n)])
            self.sizes.extend([d] * (len(parts) - self.starts[-1]))
            self.starts.append(len(parts))
        self._strips += [None] * (len(parts) - len(self._strips))
        self._rows += [None] * (len(parts) - len(self._rows))

    def strips(self, i):
        """The vertical strips on partition i by size: entry k holds the
        indices of the nu with at most n parts such that nu/lam is a vertical
        strip of k boxes (no two in a row), k = 0..n, so e_k s_lam is the sum
        of these s_nu (Pieri): the strips of its tail mask
        (_vertical_strips), each mask mapped to its index."""
        table = self._strips[i]
        if table is None:
            top = self.sizes[i] + self.n  # no strip adds more than n boxes
            if top > len(self.starts) - 2:
                self.grow(top)
            at = self.index.__getitem__
            strips = _vertical_strips(_tail_mask(self.parts[i], self.n), self.n)[1]
            table = self._strips[i] = tuple(array("i", map(at, nus)) for nus in strips)
        return table

    def row(self, i):
        """(indices, coefficients) of the Schur expansion of Chern monomial
        i, built after those of its rests down to the first one built."""
        todo, rows, strips = [], self._rows, self.strips
        while rows[i] is None:
            todo.append(i)
            i = self.rests[i]
        for i in reversed(todo):
            d, k = self.sizes[i], len(self.parts[i])
            low, high = self.starts[d], self.starts[d + 1]
            acc = [0] * (high - low)
            for j, c in zip(*rows[self.rests[i]]):
                for nu in strips(j)[k]:  # among the partitions of size d
                    acc[nu - low] += c
            rows[i] = (array("i", compress(range(low, high), acc)), tuple(filter(None, acc)))
        return rows[i]

    def packing(self, D):
        """(keys, index by key) over the Chern monomials of weighted degree
        <= D: kvec packed into one int, kvec_j the digit of (D + 1)^(j - 1)
        (see packed_chern_rows), so the key of i is that of its rest plus
        the digit of its top factor."""
        packing = self._packings.get(D)
        if packing is None:
            self.grow(D)
            digits = [(D + 1) ** j for j in range(self.n)]
            keys = [0]
            for i in range(1, self.starts[D + 1]):
                keys.append(keys[self.rests[i]] + digits[len(self.parts[i]) - 1])
            packing = self._packings[D] = (keys, dict(zip(keys, range(len(keys)))))
        return packing


def _partitions(d, n, cap):
    """The partitions of d with at most n parts, each <= cap, in lex order."""
    if d == 0:
        yield ()
    elif n:
        for first in range(-(-d // n), min(d, cap) + 1):
            for rest in _partitions(d - first, n - 1, first):
                yield (first,) + rest


def _peel(space, coeffs):
    """[(i, c)] with coeffs = sum c (Chern monomial i), by descending index:
    a unitriangular peel over a dense list, since row(i) is s_lam plus lower
    indices, so the highest index left comes off with its coefficient.
    Partitions longer than n vanish."""
    kept = [(lam, c) for lam, c in coeffs.items() if c and len(lam) <= space.n]
    if not kept:
        return []
    space.grow(max(sum(lam) for lam, _ in kept))
    indexed = [(space.index[_tail_mask(lam, space.n)], c) for lam, c in kept]
    work = [0] * (1 + max(i for i, _ in indexed))
    for i, c in indexed:
        work[i] = c
    out = []
    for i in range(len(work) - 1, -1, -1):
        c = work[i]
        if c:
            out.append((i, _norm(c)))
            for j, k in zip(*space.row(i)):
                work[j] -= c * k
    return out


def _expand(space, terms):
    """The Schur dict of sum c (Chern monomial i) over terms (i, c).  Each
    monomial is e_k c^rest with e_k its top factor: the rows of the rests
    are summed per k, and each sum is multiplied by e_k once, by strips, so
    no monomial of the top degrees needs a row of its own."""
    parts, rests = space.parts, space.rests
    size = space.starts[1 + max((space.sizes[i] for i, _ in terms), default=0)]
    by_top = [[0] * size for _ in range(space.n + 1)]
    for i, c in terms:
        acc = by_top[len(parts[i])]
        for j, k in zip(*space.row(rests[i])):
            acc[j] += c * k
    out = by_top[0]
    for k in range(1, space.n + 1):
        for j, c in enumerate(by_top[k]):
            if c:
                for nu in space.strips(j)[k]:
                    out[nu] += c
    return {parts[j]: _norm(c) for j, c in enumerate(out) if c}


def schur_to_chern(coeffs, n):
    """A Schur dict rewritten in c_1..c_n (partitions longer than n vanish),
    by the peel (_peel): the monomial of lam has kvec_i = lam_i - lam_(i+1)."""
    space = _partition_space(n)
    terms = {}
    for i, c in _peel(space, coeffs):
        lam = space.parts[i] + (0,) * (n + 1 - len(space.parts[i]))
        terms[tuple(map(sub, lam, lam[1:]))] = c
    return Poly(chern_vars(n), terms, _clean=False)


def chern_to_schur(p, n):
    """Schur coefficients {partition: coeff} of a polynomial in c_1..c_n:
    c^kvec is indexed by lam_i = kvec_i + ... + kvec_n (_expand)."""
    space = _partition_space(n)
    terms = []
    for kvec, c in p.terms.items():
        lam = tuple(accumulate(reversed(kvec)))[::-1]
        terms.append((lam[:n - lam.count(0)], c))
    space.grow(max((sum(lam) for lam, _ in terms), default=0))
    return _expand(space, [(space.index[_tail_mask(lam, n)], c) for lam, c in terms])


def packed_chern_rows(coeffs, n, D):
    """The Schur dict coeffs through degree D in c_1..c_n, as rows: row d
    lists (packed monomial, coeff) of weighted degree d, d = 0..D.  A
    monomial c^kvec of weighted degree <= D has every exponent <= D, so it
    packs into one int, kvec_i the digit of (D + 1)^(i - 1), and a product
    of two monomials through degree D is the sum of their keys."""
    space = _partition_space(n)
    keys = space.packing(D)[0]
    rows = [[] for _ in range(D + 1)]
    for i, c in _peel(space, {lam: c for lam, c in coeffs.items() if sum(lam) <= D}):
        rows[space.sizes[i]].append((keys[i], c))
    return rows


def packed_chern_to_schur(terms, n, D):
    """The Schur dict of sum c (packed monomial key) over terms (key, c), the
    keys packed through degree D (see packed_chern_rows)."""
    space = _partition_space(n)
    index = space.packing(D)[1]
    return _expand(space, [(index[key], c) for key, c in terms])


def chern_weighted_degree(exps):
    """Total alpha-degree of a Chern monomial: sum i * exp_i."""
    return sum((i + 1) * x for i, x in enumerate(exps))

