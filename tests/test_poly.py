"""Exact-core arithmetic: rings, series, division, substitution."""

import random
from fractions import Fraction

import pytest

from csmloci.oracles import (TruncSeries, to_chern_basis, total_chern, truncate,
                             truncated_product)
from csmloci.orbits import Family, alpha_vars
from csmloci.poly import ExactDivisionError, Poly, product

AV2 = alpha_vars(2)
AV3 = alpha_vars(3)


def rand_poly(rng, variables, max_deg=3, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        e = tuple(rng.randint(0, max_deg) for _ in variables)
        terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return Poly(variables, terms)


def rand_point(rng, variables):
    vals, seen = {}, set()
    for v in variables:
        while True:
            x = Fraction(rng.randint(1, 50), rng.randint(1, 6))
            if x not in seen:
                seen.add(x)
                vals[v] = x
                break
    return vals


def test_difference_of_squares():
    a1, a2 = (Poly.variable(AV2, v) for v in AV2)
    assert (a1 + a2) * (a1 - a2) == a1 * a1 - a2 * a2


def test_truncated_square_drops_top_degree():
    av = alpha_vars(1)
    s = TruncSeries(Poly.linear(av, 1, a1=1), 1)
    assert (s * s).poly == Poly(av, {(0,): 1, (1,): 2})


def test_total_chern_wedge3_in_elementary_basis():
    # oracle: brute-force expansion of prod (1+a_i+a_j), then basis conversion
    cv = total_chern(Family.WEDGE, 3)
    expect = {(0, 0, 0): 1, (1, 0, 0): 2, (2, 0, 0): 1, (0, 1, 0): 1,
              (1, 1, 0): 1, (0, 0, 1): -1}
    assert to_chern_basis(cv).terms == expect


def test_variable_set_mismatch_raises():
    with pytest.raises(ValueError):
        Poly.variable(AV2, "a1") + Poly.variable(AV3, "a1")


def test_truncation_bound_mismatch_raises():
    p = Poly.linear(AV2, 1, a1=1)
    with pytest.raises(ValueError):
        TruncSeries(p, 3) * TruncSeries(p, 4)


def test_series_invert_identity():
    assert TruncSeries(Poly.const(AV2, 1), 5).invert().poly == Poly.const(AV2, 1)


def test_series_invert_geometric():
    av = alpha_vars(1)
    inv = TruncSeries(Poly.linear(av, 1, a1=2), 3).invert()
    assert inv.poly == Poly(av, {(0,): 1, (1,): -2, (2,): 4, (3,): -8})


def test_series_invert_two_variables():
    s = Poly.linear(AV2, 0, a1=1, a2=1)
    inv = TruncSeries(Poly.const(AV2, 1) + s, 2).invert()
    assert inv.poly == Poly.const(AV2, 1) - s + s * s


def test_series_invert_needs_unit():
    with pytest.raises(ZeroDivisionError):
        TruncSeries(Poly.variable(AV2, "a1"), 3).invert()


def test_exact_divide_basic():
    a1, a2 = (Poly.variable(AV2, v) for v in AV2)
    assert (a1 * a1 - a2 * a2).exact_divide(a1 - a2) == a1 + a2
    with pytest.raises(ExactDivisionError):
        (a1 * a1 + a2).exact_divide(a1 - a2)


def test_exact_divide_roundtrip_random():
    rng = random.Random(100)
    for _ in range(30):
        a, b = rand_poly(rng, AV3), rand_poly(rng, AV3)
        if b.is_zero():
            continue
        assert (a * b).exact_divide(b) == a


def test_gradewise_series_division():
    # division of a series by a homogeneous polynomial, slice by slice
    a1, a2 = (Poly.variable(AV2, v) for v in AV2)
    den = a1 - a2
    num = TruncSeries((a1 * a1 - a2 * a2) + (a1 ** 3 - a1 * a1 * a2), 3)
    q = num.exact_divide_homogeneous(den)
    assert q.bound == 2
    assert q.poly == (a1 + a2) + a1 * a1
    bad = TruncSeries(a1 * a1 + a2 * a2, 2)
    with pytest.raises(ExactDivisionError):
        bad.exact_divide_homogeneous(den)


def test_substitute_restriction_kills_weight():
    sv = ("s1",)
    img = {"a1": Poly.variable(sv, "s1"), "a2": Poly.variable(sv, "s1").scale(-1)}
    assert Poly.linear(AV2, 0, a1=1, a2=1).substitute(img, sv).is_zero()


def test_substitute_halves():
    xv = ("xi",)
    half = Poly(xv, {(1,): Fraction(1, 2)})
    img = {"a1": half, "a2": half}
    out = (Poly.variable(AV2, "a1") * Poly.variable(AV2, "a2")).substitute(img, xv)
    assert out == Poly(xv, {(2,): Fraction(1, 4)})


def test_substitute_unmapped_variable_raises():
    with pytest.raises(ValueError):
        Poly.variable(AV2, "a2").substitute({"a1": Poly.variable(("t",), "t")})


def test_substitute_needs_images_only_for_used_variables():
    tv = ("t",)
    a1 = Poly.variable(AV2, "a1")
    assert a1.substitute({"a1": Poly.variable(tv, "t")}) == Poly.variable(tv, "t")
    with pytest.raises(ValueError, match=r"unmapped variables in substitution: \['a2'\]"):
        (a1 + Poly.variable(AV2, "a2")).substitute({"a1": Poly.variable(tv, "t")})


def test_substitute_is_ring_morphism():
    rng = random.Random(7)
    tv = ("s1", "s2")
    img = {"a1": Poly.linear(tv, 1, s1=1), "a2": Poly.linear(tv, 0, s1=1, s2=2),
           "a3": Poly.variable(tv, "s2")}
    for _ in range(15):
        p, q = rand_poly(rng, AV3), rand_poly(rng, AV3)
        assert (p * q).substitute(img, tv) == p.substitute(img, tv) * q.substitute(img, tv)


def test_substitute_refuses_negative_powers():
    # a power of an image is a product, so a Laurent monomial has none
    swap = {"a1": Poly.variable(AV2, "a2"), "a2": Poly.variable(AV2, "a1")}
    with pytest.raises(ValueError, match="negative power of a1"):
        Poly(AV2, {(-1, 1): 1}).substitute(swap)


def test_ring_laws_random():
    rng = random.Random(13)
    for _ in range(25):
        a, b, c = (rand_poly(rng, AV3) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


def test_products_with_fraction_coefficients():
    # products over a common denominator equal the term-by-term sum of
    # Fraction products: integral coefficients come out as int, cancelled
    # terms vanish
    x, y = (Poly.variable(AV2, v) for v in AV2)
    assert (x.scale(Fraction(1, 2)) + y.scale(Fraction(1, 3))) * (x.scale(2) - y.scale(3)) == \
        Poly(AV2, {(2, 0): 1, (1, 1): Fraction(-5, 6), (0, 2): -1})
    assert ((x + y).scale(Fraction(1, 2)) * (x - y).scale(Fraction(1, 2))).terms == \
        {(2, 0): Fraction(1, 4), (0, 2): Fraction(-1, 4)}
    rng = random.Random(21)
    for _ in range(25):
        a, b = rand_poly(rng, AV3), rand_poly(rng, AV3) + Poly.const(AV3, rng.randint(-3, 3))
        want = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(u + v for u, v in zip(e1, e2))
                want[e] = want.get(e, 0) + Fraction(c1) * c2
        want = {e: c.numerator if c.denominator == 1 else c for e, c in want.items() if c}
        got = (a * b).terms
        assert got == want and all(type(got[e]) is type(c) for e, c in want.items())


def test_evaluation_oracle_on_products():
    rng = random.Random(99)
    for _ in range(10):
        a, b = rand_poly(rng, AV3), rand_poly(rng, AV3)
        pt = rand_point(rng, AV3)
        assert (a * b).eval(pt) == a.eval(pt) * b.eval(pt)


def test_series_invert_is_two_sided():
    rng = random.Random(5)
    for _ in range(10):
        p = rand_poly(rng, AV2, max_deg=2) + Poly.const(AV2, rng.randint(1, 4))
        s = TruncSeries(p, 6)
        inv = s.invert()
        assert (s * inv).poly == Poly.const(AV2, 1)
        assert (inv * s).poly == Poly.const(AV2, 1)


def test_product_with_bound_matches_truncated_product():
    rng = random.Random(3)
    fs = [rand_poly(rng, AV2, max_deg=1, n_terms=3) for _ in range(4)]
    full = product(fs, AV2)
    assert truncated_product(fs, AV2, 3) == truncate(full, 3)
