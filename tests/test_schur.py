"""Partitions, Schur polynomials and basis conversions."""

import collections
import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csmloci.oracles import (NotSymmetricError, TruncSeries, _schur_terms,
                             branching_schur_dict_to_alpha, chern_to_alpha,
                             euler_class, schur_dict_value, schur_poly, to_chern_basis,
                             to_schur_basis, weight_pairs)
from csmloci import schur
from csmloci.interp import w_schur
from csmloci.orbits import Family, OrbitId, alpha_vars, chern_vars, orbits
from csmloci.partitions import conjugate, count_ssyt, partition, staircase
from csmloci.poly import Poly
from csmloci.schur import (_alternant_mask, _head_masks, _kostka_row, _mask_partition,
                           _mask_strips, _partition_space, _staircase_shift, _tail_mask,
                           alternant_schur_coeffs, chern_to_schur, pushforward_schur,
                           schur_dict_to_alpha, schur_to_chern)


def partitions_upto(max_size, max_len=None):
    """Every partition of size <= max_size with at most max_len parts: by
    size, and largest first within a size."""
    def of(d, cap, slots):
        if d == 0:
            yield ()
        elif slots:
            for first in range(min(cap, d), 0, -1):
                for rest in of(d - first, first, slots - 1):
                    yield (first,) + rest

    slots = max_size if max_len is None else max_len
    return [lam for d in range(max_size + 1) for lam in of(d, d, slots)]


def test_partition_normalization():
    assert partition([3, 2, 0, 0]) == (3, 2)
    assert partition([]) == ()
    with pytest.raises(ValueError):
        partition([1, 2])
    # any input is converted to a tuple of ints, or refused
    assert partition(()) == () and partition((3, 3, 1)) == (3, 3, 1)
    assert type(partition([3, 3, 1])) is tuple
    assert partition((3, 1, 0, 0)) == (3, 1)
    assert partition((True, True)) == (1, 1)
    assert {type(p) for p in partition((2, True))} == {int}
    for bad, message in (((1, 2), "not weakly decreasing"), ((2, 1, 3), "not weakly decreasing"),
                         ((2, -1), "negative part"), ([2, -1, 0], "negative part"),
                         ((False, True), "not weakly decreasing")):
        with pytest.raises(ValueError, match=message):
            partition(bad)


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(conjugate((4, 2, 1))) == (4, 2, 1)


def test_staircase():
    assert staircase(4) == (3, 2, 1)
    assert staircase(1) == ()


def test_schur_s11():
    av = alpha_vars(3)
    expect = Poly(av, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    assert schur_poly((1, 1), 3) == expect


def test_schur_s2():
    av = alpha_vars(2)
    expect = Poly(av, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert schur_poly((2,), 2) == expect


def test_schur_s21_jacobi_trudi():
    # oracle: 2x2 determinant h2*h1 - h3 in the elementary basis reads e1e2 - e3
    got = to_chern_basis(schur_poly((2, 1), 3))
    assert got == Poly(("c1", "c2", "c3"), {(1, 1, 0): 1, (0, 0, 1): -1})


def test_schur_too_long_partition_vanishes():
    assert schur_poly((1, 1, 1), 2).is_zero()


def test_staircase_schur_is_weight_product():
    for n in (2, 3, 4):
        assert schur_poly(staircase(n), n) == euler_class(Family.WEDGE, n)


def test_count_ssyt_matches_expansion():
    for lam in [(2, 1), (3,), (2, 2, 1)]:
        for n in (2, 3, 4):
            ones = {f"a{i}": Fraction(1) for i in range(1, n + 1)}
            assert schur_poly(lam, n).eval(ones) == count_ssyt(lam, n)


def test_to_chern_basis_examples():
    av = alpha_vars(2)
    assert to_chern_basis(Poly.linear(av, 0, a1=1, a2=1)) == \
        Poly(("c1", "c2"), {(1, 0): 1})
    with pytest.raises(NotSymmetricError):
        to_chern_basis(Poly.variable(av, "a1"))


def test_chern_roundtrip_random_symmetric():
    rng = random.Random(17)
    n = 3
    for _ in range(10):
        coeffs = {lam: rng.randint(-5, 5) for lam in partitions_upto(4, max_len=n)}
        p = schur_dict_to_alpha(coeffs, n)
        assert chern_to_alpha(to_chern_basis(p), n) == p


def test_to_schur_basis_examples():
    av = alpha_vars(3)
    c1sq = Poly.linear(av, 0, a1=1, a2=1, a3=1) ** 2
    assert to_schur_basis(c1sq) == {(2,): 1, (1, 1): 1}
    assert to_schur_basis(Poly.const(av, 1)) == {(): 1}
    with pytest.raises(NotSymmetricError):
        to_schur_basis(Poly.linear(av, 0, a1=1, a2=1))
    av2 = alpha_vars(2)
    # a dominant monomial without its permutations, a full orbit with unequal
    # coefficients, a non-symmetric series, and a symmetric Laurent polynomial
    for bad in (Poly.variable(av2, "a1") ** 2, Poly.linear(av2, 0, a1=1, a2=2),
                TruncSeries(Poly.linear(av2, 1, a2=1), 2),
                Poly(av2, {(-1, 0): 1, (0, -1): 1})):
        with pytest.raises(NotSymmetricError):
            to_schur_basis(bad)


def test_schur_roundtrip_exact():
    rng = random.Random(23)
    n = 3
    for _ in range(10):
        coeffs = {lam: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                  for lam in partitions_upto(4, max_len=n)}
        coeffs = {k: v for k, v in coeffs.items() if v}
        p = schur_dict_to_alpha(coeffs, n)
        assert to_schur_basis(p) == coeffs


def test_to_schur_degreewise_on_series():
    av = alpha_vars(2)
    e1 = Poly.linear(av, 0, a1=1, a2=1)
    ser = TruncSeries(Poly.const(av, 1) + e1 + e1 * e1, 2)
    d = to_schur_basis(ser)
    assert d == {(): 1, (1,): 1, (2,): 1, (1, 1): 1}


@st.composite
def schur_dicts(draw):
    n = draw(st.integers(1, 4))
    lams = draw(st.lists(st.sampled_from(list(partitions_upto(6, max_len=n))),
                         unique=True, max_size=5))
    return n, {lam: draw(st.integers(-4, 4).filter(bool)) for lam in lams}


@settings(derandomize=True, deadline=None, max_examples=40)
@given(schur_dicts())
def test_schur_roundtrip_property(case):
    n, coeffs = case
    p = schur_dict_to_alpha(coeffs, n)
    assert to_schur_basis(p, n) == coeffs
    assert to_schur_basis(chern_to_alpha(to_chern_basis(p), n), n) == coeffs


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.integers(1, 5).flatmap(lambda m: st.tuples(
    st.just(m), st.sampled_from(list(partitions_upto(6, max_len=m))), st.integers(0, 5))))
def test_pieri_strips(case):
    # e_k s_mu sums the vertical k-strips over mu: the mask table lists them
    # by tail mask, with |mu|, and the partition space of m variables lists
    # the same strips by index, for k = 0..m; e_k is zero for k > m
    m, mu, k = case
    masks = _mask_strips(m)
    size, table = masks[_tail_mask(mu, m)]
    assert size == sum(mu) and len(table) == m + 1
    expect = Poly.zero(alpha_vars(m))
    for nu in table[k] if k <= m else ():
        assert masks[nu][0] == size + k
        expect = expect + schur_poly(_mask_partition(nu, m), m)
    assert schur_poly(mu, m) * schur_poly((1,) * k, m) == expect
    space = _partition_space(m)
    space.grow(sum(mu))
    indexed = space.strips(space.index[_tail_mask(mu, m)])
    assert [[space.parts[i] for i in nus] for nus in indexed] == \
        [[_mask_partition(nu, m) for nu in nus] for nus in table]


@st.composite
def conversion_cases(draw):
    # partitions may be longer than n (they vanish in n variables); the dict
    # may be cut at a degree, as a truncated class is
    n = draw(st.integers(1, 5))
    lams = draw(st.lists(st.sampled_from(list(partitions_upto(7))), unique=True, max_size=6))
    coeffs = {lam: draw(st.integers(-4, 4).filter(bool)) for lam in lams}
    cut = draw(st.none() | st.integers(0, 7))
    if cut is not None:
        coeffs = {lam: c for lam, c in coeffs.items() if sum(lam) <= cut}
    kvecs = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), unique=True, max_size=4))
    chern = Poly(chern_vars(n), {k: Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 3)))
                                 for k in kvecs})
    return n, coeffs, chern


@settings(derandomize=True, deadline=None, max_examples=60)
@given(conversion_cases())
def test_strip_conversions_match_alpha_route(case):
    # Schur -> Chern by the unitriangular peel and Chern -> Schur by vertical
    # strips agree with the conversions through the Chern roots
    n, coeffs, chern = case
    got = schur_to_chern(coeffs, n)
    assert got == to_chern_basis(schur_dict_to_alpha(coeffs, n), n)
    assert chern_to_schur(got, n) == {lam: c for lam, c in coeffs.items() if len(lam) <= n}
    assert chern_to_schur(chern, n) == to_schur_basis(chern_to_alpha(chern, n), n)
    assert schur_to_chern(chern_to_schur(chern, n), n) == chern


@st.composite
def space_cases(draw):
    # Schur dicts up to size 10, past the sizes the other tests reach, so the
    # partition space grows by several degrees in one call
    n = draw(st.integers(1, 5))
    lams = draw(st.lists(st.sampled_from(partitions_upto(10, max_len=n)), unique=True,
                         max_size=5))
    return n, {lam: draw(st.integers(-9, 9).filter(bool)) for lam in lams}


@settings(derandomize=True, deadline=None, max_examples=40)
@given(space_cases())
def test_conversions_on_the_partition_space_match_alpha_route(case):
    # the peel over the partition space agrees with the Chern-roots oracle,
    # and chern_to_schur inverts it
    n, coeffs = case
    chern = schur_to_chern(coeffs, n)
    assert chern == to_chern_basis(schur_dict_to_alpha(coeffs, n), n)
    assert chern_to_schur(chern, n) == coeffs


def test_conversions_of_a_long_first_row():
    # a row is built after the rows of its rests, one box off each part at a
    # time: (3000,) in one variable is c_1^3000, 3000 rests deep
    assert schur_to_chern({(3000,): 2}, 1) == Poly(chern_vars(1), {(3000,): 2})
    assert chern_to_schur(Poly(chern_vars(1), {(3001,): -1}), 1) == {(3001,): -1}


def assert_same_terms(got, expect):
    # equal term dicts whose coefficients also have the same types
    assert got == expect
    assert [type(c) for c in got.terms.values()] == \
        [type(expect.terms[e]) for e in got.terms]


def cut(coeffs, max_deg):
    # the terms of degree <= max_deg, all of them for None
    return {lam: c for lam, c in coeffs.items() if max_deg is None or sum(lam) <= max_deg}


def test_kostka_route_matches_branching_on_w_classes():
    # every W-class with n <= 5 of both families, and the two at (6, 2),
    # whole and cut at a degree
    cases = [(orbit, w_schur(orbit)) for family in (Family.WEDGE, Family.SYM)
             for n in range(1, 6) for orbit in orbits(family, n)]
    cases += [(OrbitId(family, 6, 2), w_schur(OrbitId(family, 6, 2)))
              for family in (Family.WEDGE, Family.SYM)]
    for orbit, coeffs in cases:
        for max_deg in (None, 0, 3, orbit.n + 2):
            assert_same_terms(schur_dict_to_alpha(cut(coeffs, max_deg), orbit.n),
                              branching_schur_dict_to_alpha(coeffs, orbit.n, max_deg))


@st.composite
def alpha_cases(draw):
    # partitions may be longer than n (they vanish), coefficients may be zero
    # or a Fraction, whole or not
    n = draw(st.integers(0, 5))
    lams = draw(st.lists(st.sampled_from(partitions_upto(7)), unique=True, max_size=6))
    coeff = st.integers(-4, 4) | st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    coeffs = {lam: draw(coeff) for lam in lams}
    return n, coeffs, draw(st.none() | st.integers(0, 7))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(alpha_cases())
def test_kostka_route_matches_branching_property(case):
    n, coeffs, max_deg = case
    assert_same_terms(schur_dict_to_alpha(cut(coeffs, max_deg), n),
                      branching_schur_dict_to_alpha(coeffs, n, max_deg))


@st.composite
def alternant_cases(draw):
    # monomials in n_alt roots and one passive variable y; exponents below 4
    # make repeated root exponents, which must cancel, common
    n_alt = draw(st.integers(0, 4))
    exps = st.tuples(*[st.integers(0, 3)] * (n_alt + 1))
    coeff = st.integers(-5, 5) | st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    poly = Poly(alpha_vars(n_alt) + ("y",), draw(st.dictionaries(exps, coeff, max_size=10)))
    point = draw(st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
                          min_size=n_alt, max_size=n_alt, unique=True))
    return n_alt, poly, point


@settings(derandomize=True, deadline=None, max_examples=80)
@given(alternant_cases())
def test_alternant_schur_coeffs_is_alt_over_vandermonde(case):
    # at a point with distinct coordinates, each passive slice of the result
    # takes the value Alt(p) / V, Alt(p) = sum_w sgn(w) p(x_w(1), ..., x_w(n))
    n_alt, poly, x = case
    got = alternant_schur_coeffs(poly, n_alt)
    vandermonde = Fraction(1)
    for i, j in itertools.combinations(range(n_alt), 2):
        vandermonde *= x[i] - x[j]
    alt = {}
    for w in itertools.permutations(range(n_alt)):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(w, 2))
        for e, c in poly.terms.items():
            term = sign * c
            for i, k in zip(w, e[:n_alt]):
                term *= x[i] ** k
            alt[e[n_alt:]] = alt.get(e[n_alt:], 0) + term
    assert {tail for _, tail in got} <= set(alt)
    for tail, value in alt.items():
        coeffs = {lam: c for (lam, t), c in got.items() if t == tail}
        assert schur_dict_value(coeffs, x) == value / vandermonde


def brute_alternant(v):
    """(sorted v, sign of the sort) for a^v under alternation, or None on a
    repeated entry: the sign counts the pairs out of descending order."""
    if len(set(v)) < len(v):
        return None
    sign = (-1) ** sum(x < y for x, y in itertools.combinations(v, 2))
    return tuple(sorted(v, reverse=True)), sign


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.integers(0, 12), max_size=8)
       | st.lists(st.integers(0, 12), max_size=8, unique=True))
def test_alternant_mask_is_sort_and_sign(v):
    got, want = _alternant_mask(v), brute_alternant(v)
    assert (got is None) == (want is None)
    if want:
        mask, sign = got
        head, want_sign = want
        assert sign == want_sign
        assert mask == sum(1 << x for x in v)
        part = [x - (len(v) - 1 - i) for i, x in enumerate(head)]
        assert _mask_partition(mask, len(v)) == partition(part)


def test_head_masks_sum_over_the_orderings():
    for r in range(5):
        for alpha in itertools.product(range(3), repeat=r):
            for lam in partitions_upto(3, r):
                shift = _staircase_shift(lam, r)
                want = collections.Counter()
                for o in set(itertools.permutations(alpha)):
                    if read := brute_alternant([x + y for x, y in zip(o, shift)]):
                        head, sign = read
                        want[sum(1 << x for x in head)] += sign
                assert _head_masks(alpha, shift) == {k: c for k, c in want.items() if c}


def test_cached_expansions_are_read_only():
    for cached in (_kostka_row((2, 1), 3), _schur_terms((2, 1), 3)):
        with pytest.raises(TypeError):
            cached[(1, 1, 1)] = 999
    assert dict(_kostka_row((2, 1), 3)) == {(2, 1): 1, (1, 1, 1): 2}


POINT = (Fraction(1, 2), Fraction(-3), Fraction(2), Fraction(5, 3), Fraction(-1, 7))
CROSS_SHAPES = ((0, 1), (1, 1), (1, -1), (0, -1))


@st.composite
def pushforward_cases(draw):
    n = draw(st.integers(2, 5))
    r = draw(st.integers(2, n))
    m = n - r
    # an inner partition with m + 1 parts is zero in the m variables of J
    lams = draw(st.lists(st.sampled_from(list(partitions_upto(3, max_len=m + 1))),
                         unique=True, min_size=1, max_size=3))
    inner = {mu: draw(st.integers(-3, 3).filter(bool)) for mu in lams}
    family = draw(st.sampled_from((Family.WEDGE, Family.SYM)))
    cross = draw(st.lists(st.sampled_from(CROSS_SHAPES), unique=True, min_size=1))
    return family, n, r, inner, cross


@settings(derandomize=True, deadline=None, max_examples=40)
@given(pushforward_cases())
# an inner term with more than m parts adds nothing: the kernel's entry drops it
@example((Family.SYM, 4, 2, {(1, 1, 1): 5, (2,): -1}, [(0, 1), (1, -1)]))
# m = 0 (r = n): J is empty, and the degree-exact factor is 1
@example((Family.SYM, 3, 3, {(): 2, (1,): 1}, [(0, -1), (1, 1)]))
# both degree-exact shapes at r >= 3, with no c = 1 factor
@example((Family.WEDGE, 5, 3, {(1,): 1, (2, 1): -2}, [(0, 1), (0, -1)]))
def test_pushforward_is_subset_sum(case):
    # the kernel equals the literal Gysin sum over I of the base-subset term,
    # inner(a_J) prod_{i<j in I} (a_i + a_j) (i <= j for sym) times the cross
    # factors, over prod_{i in I, j not in I} (a_i - a_j) at a rational point
    family, n, r, inner, cross = case
    a = POINT[:n]
    expect = Fraction(0)
    for I in itertools.combinations(range(n), r):
        J = [j for j in range(n) if j not in I]
        term = schur_dict_value(inner, [a[j] for j in J])
        for x, y in weight_pairs(family, r):
            term *= a[I[x - 1]] + a[I[y - 1]]
        for i in I:
            for j in J:
                for c, s in cross:
                    term *= c + a[i] + s * a[j]
                term /= a[i] - a[j]
        expect += term
    got = pushforward_schur(family, n, r, inner, cross)
    assert schur_dict_value(got, a) == expect


@settings(derandomize=True, deadline=None, max_examples=60)
@given(pushforward_cases(), st.integers(0, 6))
# the edges of the degree-exact pass: m = 0, where the one term is kept at
# no room to spare, and both shapes at r >= 3, cut inside the top size; D = 0
@example((Family.SYM, 3, 3, {(): 2, (1,): 1}, [(0, -1), (1, 1)]), 6)
@example((Family.WEDGE, 5, 3, {(1,): 1, (2, 1): -2}, [(0, 1), (0, -1)]), 10)
@example((Family.WEDGE, 4, 2, {(): 1, (1,): 2}, [(1, 1)]), 0)
def test_truncated_pushforward_is_cut_of_longer(case, D):
    # the cut that looks ahead to the degree-exact passes loses nothing of
    # size <= D, whatever the order of the cross factors
    family, n, r, inner, cross = case

    def upto_D(coeffs):
        return {mu: c for mu, c in coeffs.items() if sum(mu) <= D}

    got = pushforward_schur(family, n, r, inner, cross, D)
    assert got == upto_D(pushforward_schur(family, n, r, inner, cross, D + 3))
    assert got == pushforward_schur(family, n, r, inner, cross[::-1], D)
    assert got == upto_D(pushforward_schur(family, n, r, inner, cross))


def test_kernel_holds_one_alpha0_row_at_a_time(monkeypatch):
    # after the passes on index 0 each alpha_0 row runs alone through the
    # passes on indices 1..r-1 and is read off before the next: every state
    # a pass on i >= 1 is handed has one alpha_0, and the result is the same
    cross = ((0, 1), (1, 1))
    cases = [(Family.WEDGE, 6, 4, w_schur(OrbitId(Family.WEDGE, 2, 0)), ()),
             (Family.SYM, 7, 3, w_schur(OrbitId(Family.SYM, 4, 0), 9), (9,))]
    _mask_strips.cache_clear()
    expect = [pushforward_schur(family, n, r, inner, cross, *cut)
              for family, n, r, inner, cut in cases]
    seen = []
    for name in ("_pieri_mul", "_exact_pieri_mul"):
        def spy(state, i, *args, real=getattr(schur, name)):
            if i:
                seen.append({alpha[0] for alpha in state})
            return real(state, i, *args)
        monkeypatch.setattr(schur, name, spy)
    _mask_strips.cache_clear()
    for (family, n, r, inner, cut), want in zip(cases, expect):
        assert pushforward_schur(family, n, r, inner, cross, *cut) == want
    assert seen and all(len(alpha0s) == 1 for alpha0s in seen)


def test_pushforward_does_not_depend_on_the_index():
    # the kernel keys its rows by tail mask and builds no partition index:
    # a cold W-class leaves the partition spaces empty, and the result is the
    # same dict, key order included, cold, after schur_to_chern has grown
    # the space of m = n - r far past it, and after the space is dropped
    def run():
        return list(pushforward_schur(Family.SYM, 6, 2, {(1,): 2, (2, 1): -1},
                                      [(0, 1), (1, 1)], 9).items())

    w_schur.cache_clear()
    _partition_space.cache_clear()
    _mask_strips.cache_clear()
    for orbit in orbits(Family.SYM, 5):
        w_schur(orbit)
    assert _partition_space.cache_info().currsize == 0
    cold = run()
    schur_to_chern({(20,): 1, (5, 5, 5, 5): -1}, 4)
    assert len(_partition_space(4).parts) > 1000
    grown = run()
    _partition_space.cache_clear()
    assert cold and cold == grown == run()


# sha256 of repr(sorted(w_schur(o).items())), fed orbit by orbit over
# orbits(family, n) in order: exact W-classes recorded from an earlier,
# separately written kernel (state keyed by (alpha, mu) with mu a partition
# tuple, strips by recursion); today's kernel keys mu by its tail mask
W_CLASS_DIGESTS = {
    (Family.WEDGE, 1): "b94b1cb7d1cbc4e4791574cd93e5514a2b093fe640d2f7d3843a71615941f761",
    (Family.WEDGE, 2): "4bd2765bb67b5fa5e8828300f8f1f319bc436a0e970a5100bca90a7d74562a7d",
    (Family.WEDGE, 3): "21d0a2eac966402b985c151f39e913c588dcdab2bc6131e50c12f238d9062bc0",
    (Family.WEDGE, 4): "7627fa154bce3930d3dbd8ce68965df889a9a31d0c94aeece6bdb719af52afac",
    (Family.WEDGE, 5): "33bfe2869536693209337010006e0c1aa2ea63861d7a34673904d020e646c099",
    (Family.WEDGE, 6): "68536907b6a5382e7bfa96885da18f58ef911f22c9f2e648dd3cea3fb247fae1",
    (Family.WEDGE, 7): "387f1ee356eff2beffb26d02e8f32d2e48aef3a09c72cff970c73aee636b5ad1",
    (Family.SYM, 1): "aa2279f1da6dc934f8801c68666cf5134176b56d1ed586c3782df99c7583c85c",
    (Family.SYM, 2): "3502ddb6edc895ba45118bb35c2e58b7890f8813abd834aa4b7913f35719c0b2",
    (Family.SYM, 3): "289eed2153c43fe995bdfbc5d954ca36ca45e7f9277df8cc66d2c7da7f0fd06f",
    (Family.SYM, 4): "ef7d1d891d19edab50dcc4bb5544f3aad81ea10b322ba6a31495bc874a8868c6",
    (Family.SYM, 5): "d9204fa921c57506c2ce464aa5996503793cb3cfddaba653b9baf29232361225",
    (Family.SYM, 6): "5d01b226266ac135ddeddd167c9861c7cf95cadfa75ab3ffd7fd4a07009ec50a",
}


def test_w_class_digests():
    # every W-class with n <= 6 of both families and n = 7 of wedge, exactly
    for (family, n), digest in W_CLASS_DIGESTS.items():
        h = hashlib.sha256()
        for orbit in orbits(family, n):
            h.update(repr(sorted(w_schur(orbit).items())).encode())
        assert h.hexdigest() == digest, (family, n)
