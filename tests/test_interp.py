"""W-functions, the axiom probes and the interpolation axiom verifier."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csmloci.classes import add_schur
from csmloci.interp import (_cv_rows, _probe, _restricted_schur, chern_schur, csm_class,
                            restrict_schur, ssm_interp, ssm_interp_schur, verify_axioms,
                            w_function, w_schur)
from csmloci.oracles import (_require_symmetric, csm_to_ssm, restrict, schur_dict_value,
                             to_chern_basis, total_chern, verify_axioms_by_substitution,
                             w_inner_value, w_value)
from csmloci.orbits import Family, OrbitId, alpha_vars, ambient_dim, coranks, orbits
from csmloci.partitions import partition, staircase
from csmloci.poly import Poly, product
from csmloci.schur import NotSymmetricError, schur_dict_to_alpha
from csmloci.sieve import ssm_schur, ssm_sieve

W, S = Family.WEDGE, Family.SYM


def cpoly(n, terms):
    return Poly(tuple(f"c{i}" for i in range(1, n + 1)), terms)


PRINTED_W = {
    (W, 2, 2): {(1, 0): 1},
    (W, 3, 1): {(0, 0, 0): 1, (1, 0, 0): 2, (2, 0, 0): 1, (0, 1, 0): 1},
    (W, 3, 3): {(1, 1, 0): 1, (0, 0, 1): -1},
    (W, 4, 0): {(0, 0, 0, 0): 1, (1, 0, 0, 0): 2, (2, 0, 0, 0): 1, (0, 1, 0, 0): 2,
                (1, 1, 0, 0): 2, (0, 2, 0, 0): 1, (1, 0, 1, 0): 1, (0, 0, 0, 1): -4},
    (W, 4, 2): {(1, 0, 0, 0): 1, (2, 0, 0, 0): 2, (3, 0, 0, 0): 1, (1, 1, 0, 0): 2,
                (2, 1, 0, 0): 2, (1, 2, 0, 0): 1, (2, 0, 1, 0): 1, (1, 0, 0, 1): -4},
    (W, 4, 4): {(1, 1, 1, 0): 1, (2, 0, 0, 1): -1, (0, 0, 2, 0): -1},
    (S, 2, 0): {(0, 0): 1, (1, 0): 1, (0, 1): 4},
    (S, 2, 1): {(1, 0): 2, (2, 0): 2},
    (S, 2, 2): {(1, 1): 4},
}


@pytest.mark.parametrize("key", sorted(PRINTED_W, key=str))
def test_w_matches_printed_values(key):
    fam, n, r = key
    got = to_chern_basis(w_function(OrbitId(fam, n, r)).poly)
    assert got == cpoly(n, PRINTED_W[key])


def test_w_inner_wedge_2_is_one():
    assert schur_dict_to_alpha(w_schur(OrbitId(W, 2, 0)), 2) == Poly.const(alpha_vars(2), 1)


def test_w_inner_sym_2():
    av = alpha_vars(2)
    assert schur_dict_to_alpha(w_schur(OrbitId(S, 2, 0)), 2) == \
        Poly(av, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 4})


def test_w_inner_wedge_4_printed():
    got = to_chern_basis(schur_dict_to_alpha(w_schur(OrbitId(W, 4, 0)), 4))
    assert got == cpoly(4, PRINTED_W[(W, 4, 0)])


def test_w_inner_parity():
    with pytest.raises(ValueError):
        OrbitId(W, 3, 0)


def expected_top_degree(family, n, r):
    if family is W:
        return (n * n - 2 * n + r) // 2
    return n * (n + 1) // 2 - (n - r + 1) // 2


def test_w_symmetric_and_integral():
    for fam in (W, S):
        for n in range(1, 5):
            for r in coranks(fam, n):
                poly = w_function(OrbitId(fam, n, r)).poly
                _require_symmetric(poly, n)
                assert all(isinstance(c, int) for c in poly.terms.values())
                assert poly.total_degree() == expected_top_degree(fam, n, r)


def test_w_top_degree_n5():
    for fam in (W, S):
        for r in coranks(fam, 5):
            poly = w_function(OrbitId(fam, 5, r)).poly
            assert poly.total_degree() == expected_top_degree(fam, 5, r)


def test_w_lowest_term_is_staircase():
    for n in (2, 3, 4, 5):
        for r in coranks(W, n):
            low = {lam: c for lam, c in w_schur(OrbitId(W, n, r)).items()
                   if sum(lam) == (r * (r - 1)) // 2}
            assert low == {staircase(r): 1}


def test_w_value_oracle():
    # the defining rational subset sum, evaluated directly, agrees with the
    # Schur form at random rational points with distinct coordinates
    rng = random.Random(42)
    for fam, n, r in [(W, 2, 0), (W, 3, 1), (W, 4, 2), (W, 4, 4),
                      (S, 2, 1), (S, 3, 0), (S, 3, 2), (S, 4, 1),
                      (W, 5, 1), (W, 5, 3), (S, 5, 2), (W, 6, 2), (S, 6, 1), (S, 6, 3)]:
        orbit = OrbitId(fam, n, r)
        for _ in range(3):
            pt = [Fraction(v, 7) for v in rng.sample(range(2, 60), n)]
            assert schur_dict_value(w_schur(orbit), pt) == w_value(orbit, pt)


def test_w_inner_value_oracle():
    rng = random.Random(8)
    for fam, k in [(W, 4), (S, 3), (S, 4), (W, 2), (S, 1), (S, 2), (S, 5)]:
        poly = schur_dict_to_alpha(w_schur(OrbitId(fam, k, 0)), k)
        for _ in range(3):
            pt = [Fraction(v, 5) for v in rng.sample(range(1, 40), k)]
            assert poly.eval({f"a{i + 1}": pt[i] for i in range(k)}) == \
                w_inner_value(fam, k, pt)


def test_csm_sum_is_total_chern():
    # additivity: the csm classes of all orbits add up to c(TV) = c(V)
    from csmloci.oracles import to_schur_basis
    for fam in (W, S):
        for n in range(1, 7):
            total = add_schur(*[w_schur(OrbitId(fam, n, r)) for r in coranks(fam, n)])
            assert total == to_schur_basis(total_chern(fam, n), n)


def test_chern_schur_is_weight_product():
    # the closed form against prod (1 + a_i + a_j) over the weights at a
    # rational point, without the kernel
    from csmloci.interp import chern_schur
    from csmloci.oracles import weight_pairs
    point = (Fraction(1, 2), Fraction(-3), Fraction(2), Fraction(5, 3), Fraction(-1, 7),
             Fraction(4), Fraction(-2, 5))
    for fam in (W, S):
        for n in range(1, 8):
            pt = point[:n]
            expect = Fraction(1)
            for i, j in weight_pairs(fam, n):
                expect *= 1 + pt[i - 1] + pt[j - 1]
            assert schur_dict_value(chern_schur(fam, n), pt) == expect


def test_chern_schur_matches_bareiss_oracle():
    # the box-removal recurrence against one Bareiss determinant per mu,
    # key order and coefficient types included
    from csmloci.interp import chern_schur
    from csmloci.oracles import chern_schur_bareiss
    for fam in (W, S):
        for n in range(1, 9):
            got, want = chern_schur(fam, n), chern_schur_bareiss(fam, n)
            assert list(got.items()) == list(want.items()), (fam, n)
            assert {type(c) for c in got.values()} == {int}


def test_cut_expansion_is_cut_of_full():
    # c(V) expanded only through size D is the full expansion cut at D
    from csmloci.interp import chern_schur
    from csmloci.orbits import inside_weights
    for fam in (W, S):
        for n in range(1, 8):
            full = chern_schur(fam, n)
            for D in range(sum(inside_weights(fam, n)[0]) + 2):
                cut = [(mu, c) for mu, c in full.items() if sum(mu) <= D]
                assert list(chern_schur(fam, n, D).items()) == cut, (fam, n, D)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([W, S]), st.integers(1, 4), st.integers(0, 9),
       st.dictionaries(st.lists(st.integers(1, 4), max_size=4).map(
           lambda parts: tuple(sorted(parts, reverse=True))), st.integers(-9, 9), max_size=6))
def test_divide_by_cv_inverts_the_product(fam, n, D, f):
    # (f c(V)) cut at D, divided by c(V), is f cut at D
    from csmloci.interp import chern_schur, divide_by_cv
    from csmloci.schur import chern_to_schur, schur_to_chern
    f = {lam: c for lam, c in f.items() if c and len(lam) <= n}
    product = chern_to_schur(schur_to_chern(f, n) * schur_to_chern(chern_schur(fam, n), n), n)
    cut = {lam: c for lam, c in product.items() if sum(lam) <= D}
    assert divide_by_cv(cut, fam, n, D) == {lam: c for lam, c in f.items() if sum(lam) <= D}


def test_cached_results_are_read_only():
    from csmloci.interp import _cv_rows, _probe, chern_schur
    from csmloci.ktheory import (_phi_k_cleared, phi_wedge_k, q_binomial, q_euler_numbers,
                                 q_factorial)
    from csmloci.schur import chern_to_schur, packed_chern_rows, schur_to_chern
    from csmloci.sieve import euler_numbers, phi_cv_schur, phi_schur
    orbit = OrbitId(S, 3, 1)
    before = csm_class(orbit).payload
    for cached in (w_schur(orbit), w_schur(OrbitId(S, 3, 0)),
                   phi_schur(orbit, 4), phi_schur(OrbitId(S, 3, 0), 4),
                   ssm_interp_schur(orbit, 4), ssm_interp_schur(OrbitId(S, 3, 0), 4),
                   phi_cv_schur(orbit), phi_cv_schur(OrbitId(S, 3, 0)),
                   chern_schur(S, 3)):
        with pytest.raises(TypeError):
            cached[()] = 999
    with pytest.raises(TypeError):
        euler_numbers(4)[2] = 7
    # c(V) in c_1..c_n: rows by weighted degree of (packed monomial, coeff)
    cv = _cv_rows(S, 3, 4)
    for rows in (cv, cv[1]):
        with pytest.raises(TypeError):
            rows[0] = (0, 999)
    # the conversions hand out fresh results, never the rows of their
    # cached partition space: changing one changes no later result
    f = {(2, 1): 1, (3,): 2, (1, 1, 1): -1}
    chern, rows = schur_to_chern(f, 3), packed_chern_rows(f, 3, 4)
    back = chern_to_schur(chern, 3)
    chern.terms[(0, 0, 1)] = 999
    rows[3].append((0, 999))
    back[()] = 999
    assert schur_to_chern(f, 3) == Poly(chern.vars, {(3, 0, 0): 2, (1, 1, 0): -3})
    assert packed_chern_rows(f, 3, 4) == [[], [], [], [(3, 2), (6, -3)], []]
    assert chern_to_schur(schur_to_chern(f, 3), 3) == f
    mc = phi_wedge_k(2, 2)
    with pytest.raises(AttributeError):
        mc.kind = "bogus"
    num, den = dict(mc.value.num.terms), dict(mc.value.den.terms)
    for name in ("num", "den"):
        with pytest.raises(AttributeError):
            setattr(mc.value, name, mc.value.num.scale(5))
    after = phi_wedge_k(2, 2).value
    assert (dict(after.num.terms), dict(after.den.terms)) == (num, den)
    with pytest.raises(AttributeError):
        mc.notes.append("x")
    assert csm_class(orbit).payload == before
    assert euler_numbers(4) == (1, 0, -1, 0, 5)
    assert (phi_wedge_k(2, 2).kind, phi_wedge_k(2, 2).notes) == ("phi", ())
    # the cached K-theory polynomials: Phi's numerator and denominator, the
    # q-factorials, q-binomials and q-Euler numbers
    qe = q_euler_numbers(4)
    with pytest.raises(TypeError):
        qe[2] = qe[0]
    for poly in (mc.value.num, mc.value.den, phi_wedge_k(4, 0).value.num,
                 q_factorial(3), q_binomial(4, 2), qe[2]):
        was = dict(poly.terms)
        e = next(iter(was))
        with pytest.raises(TypeError):
            poly.terms[e] = 999
        assert dict(poly.terms) == was
    # nor can their vars or terms be rebound or deleted
    for poly in (mc.value.num, q_factorial(3), q_binomial(4, 2), qe[2],
                 _phi_k_cleared(2, 2)):
        was = (poly.vars, dict(poly.terms))
        for name in ("vars", "terms"):
            with pytest.raises(AttributeError):
                setattr(poly, name, {(0,) * len(poly.vars): 7})
            with pytest.raises(AttributeError):
                delattr(poly, name)
        assert (poly.vars, dict(poly.terms)) == was
    assert dict(phi_wedge_k(2, 2).value.num.terms) == num
    assert q_binomial(4, 2).terms[(2,)] == 2 and q_factorial(3).terms[(1,)] == 2
    # the axiom verifier's probe: its roots, tangent factors, their
    # representatives and c(T)e(N)
    _, roots, tangent, reps, tangent_normal, _ = _probe(5, 1)
    for poly in roots + tangent + reps + (tangent_normal,):
        was = dict(poly.terms)
        with pytest.raises(TypeError):
            poly.terms[next(iter(was))] = 999
        with pytest.raises(AttributeError):
            poly.terms = {}
        assert dict(poly.terms) == was
    assert verify_axioms(OrbitId(W, 5, 1)).ok


def test_cut_w_is_cut_of_exact_w():
    # every call passes the cut on as *cut, so w_schur(o) is one cache key:
    # from fresh caches the csm classes with n <= 5 leave one entry per orbit
    w_schur.cache_clear()
    small = [orbit for fam in (W, S) for n in range(1, 6) for orbit in orbits(fam, n)]
    for orbit in small:
        csm_class(orbit)
    assert w_schur.cache_info().currsize == len(small)
    for fam in (W, S):
        for n in range(1, 7):
            for orbit in orbits(fam, n):
                exact = w_schur(orbit)
                for D in (0, 1, 3, 6, 12):
                    assert w_schur(orbit, D) == \
                        {lam: c for lam, c in exact.items() if sum(lam) <= D}, (orbit, D)


def test_ssm_at_top_degree_reuses_exact_w():
    # no class of V_n passes degree ambient_dim(n), so from there on the ssm
    # divides the exact W: it adds no cut W to the cache the csm filled
    w_schur.cache_clear()
    small = [orbit for fam in (W, S) for n in range(1, 6) for orbit in orbits(fam, n)]
    for orbit in small:
        csm_class(orbit)
    for orbit in small:
        ssm_interp_schur(orbit, ambient_dim(orbit.family, orbit.n))
    assert w_schur.cache_info().currsize == len(small)


def test_inverse_cv_past_top_degree_reads_exact_cv():
    # from the top degree of c(V) on, the divisor's rows read the exact
    # c(V), so they add no cut copy equal to it to the cache
    for fam in (W, S):
        for n in range(1, 6):
            chern_schur.cache_clear()
            _cv_rows.cache_clear()
            chern_schur(fam, n)
            _cv_rows(fam, n, ambient_dim(fam, n) + 3)
            assert chern_schur.cache_info().currsize == 1, (fam, n)


def test_class_keys_are_canonical_partitions():
    # classes are handed on without re-normalizing their keys, so every key
    # must be built canonical: a tuple of ints, weakly decreasing, no zeros
    from csmloci.sieve import phi_schur
    for fam in (W, S):
        for n in range(1, 6):
            dicts = [chern_schur(fam, n), chern_schur(fam, n, 12)]
            for orbit in orbits(fam, n):
                dicts += [w_schur(orbit), w_schur(orbit, 12), phi_schur(orbit, 12),
                          ssm_interp_schur(orbit, 12)]
            for coeffs in dicts:
                for key in coeffs:
                    assert type(key) is tuple and {type(p) for p in key} <= {int}, key
                    assert partition(key) == key, key


def test_csm_to_ssm_example():
    cls = csm_to_ssm(csm_class(OrbitId(W, 2, 2)), 4)
    assert cls.chern_poly() == cpoly(2, {(1, 0): 1, (2, 0): -1, (3, 0): 1, (4, 0): -1})


def test_csm_to_ssm_degree_zero():
    cls = csm_to_ssm(csm_class(OrbitId(W, 2, 0)), 0)
    assert cls.payload == {(): 1}


def test_cross_route_equality():
    # both routes divide by c(V) through divide_by_cv, so the series
    # division of csm by c(V) in the roots checks that step on its own
    for fam in (W, S):
        for n in range(1, 5):
            for r in coranks(fam, n):
                orbit = OrbitId(fam, n, r)
                assert ssm_interp(orbit, 6).payload == ssm_sieve(orbit, 6).payload
                assert ssm_interp(orbit, 6).payload == \
                    csm_to_ssm(csm_class(orbit), 6).payload
                assert ssm_interp(orbit, 6, closure=True).payload == \
                    ssm_sieve(orbit, 6, closure=True).payload
        for orbit in orbits(fam, 5):
            assert ssm_interp(orbit, 8).payload == csm_to_ssm(csm_class(orbit), 8).payload
        for n, D in [(n, 12) for n in range(1, 6)] + [(6, 10)]:
            for r in coranks(fam, n):
                orbit = OrbitId(fam, n, r)
                assert ssm_interp_schur(orbit, D) == ssm_schur(orbit, D)


# sha256 of repr(sorted(ssm_interp_schur(o, D).items())), fed orbit by orbit
# over orbits(family, n) in order, D = 12 for n <= 5 and D = 6 for n = 6:
# recorded from the kernel that expanded 1 / c(V) itself (inverted unit
# factors inside I, the open orbit from ssm classes adding up to 1)
SSM_INTERP_DIGESTS = {
    (W, 1): "b94b1cb7d1cbc4e4791574cd93e5514a2b093fe640d2f7d3843a71615941f761",
    (W, 2): "249241cf3963b010681c431f73d6adcb317779ba7883e9320182bfdb77d79510",
    (W, 3): "ecabc25b1977fee5f18476b5295e606ee0d65c16814d344e688fc5ae9ccab11b",
    (W, 4): "14c2c0c6b32ea16004055a67aa2e178e784a9115d77d3cd38ac753bf64693043",
    (W, 5): "87788c682f37dc707590fab1a9e1e60d2e430865573054ece2c78ced90271ada",
    (W, 6): "f0f453de9ba3d42257a590020e491ec3f9f1f4762bb9d83adb2ca9dfd54f9335",
    (S, 1): "820309a4a5007cf0e144e5da8d5d8375f26312c72a03dd907003cffb94031f93",
    (S, 2): "e9756c7083b0d4564be5d4e35d0a5fd0c4ed7958804672b4481b12b27f1529f5",
    (S, 3): "e897752ad954f2ae9c32f76d7dcad1f5914783737b67169d52a36b87873f5a7a",
    (S, 4): "325202ed97b7eac0a5dac3c9e79de78a1969ddfbc21edeebae5566a72d82ac4c",
    (S, 5): "467cf518f48f1cbfe607c6242e924893c29a00ae1799005f6a3eab37d8d12a0a",
    (S, 6): "a35d6346153f5208621f253435ae23e702ec9d98b9a1fad74b8bff3eaa6b2149",
}


def test_ssm_interp_digests():
    # the coefficient types are in the repr: an int and an equal Fraction differ
    for (fam, n), digest in SSM_INTERP_DIGESTS.items():
        h = hashlib.sha256()
        for orbit in orbits(fam, n):
            h.update(repr(sorted(ssm_interp_schur(orbit, 12 if n <= 5 else 6).items())).encode())
        assert h.hexdigest() == digest, (fam, n)


def test_stable_schur_output():
    # coefficients of long partitions become visible at the level where the
    # partition fits, so by stability the smallest level n >= max(r, D) of
    # the family's parity shows them all; restricting it reproduces each level
    stable = ssm_interp_schur(OrbitId(W, 4, 0), 4)
    assert (1, 1, 1, 1) in stable
    for n in (2, 4):
        level = ssm_sieve(OrbitId(W, n, 0), 4).payload
        assert {lam: c for lam, c in stable.items() if len(lam) <= n} == level
    stable_s = ssm_interp_schur(OrbitId(S, 3, 1), 3)
    assert stable_s[(1, 1, 1)] == 8
    for n in (1, 2, 3):
        level = ssm_sieve(OrbitId(S, n, 1), 3).payload
        assert {lam: c for lam, c in stable_s.items() if len(lam) <= n} == level


def test_restriction_data_smallest():
    rvars, roots, tangent, reps, tangent_normal, bound = _probe(2, 0)
    s1 = Poly.variable(rvars, "s1")
    assert (rvars, roots) == (("s1",), (s1, s1.scale(-1)))
    assert (tangent, reps, bound) == ((), (), 0)
    assert tangent_normal == Poly.const(rvars, 1)


def test_restriction_data_full_corank():
    from csmloci.oracles import euler_class
    rvars, roots, tangent, reps, tangent_normal, bound = _probe(3, 3)
    assert rvars == alpha_vars(3)
    assert roots == tuple(Poly.variable(rvars, v) for v in rvars)
    assert (tangent, reps, bound) == ((), (), 3)
    assert tangent_normal == euler_class(W, 3)


def test_restriction_data_4_2():
    rvars, _, tangent, reps, tangent_normal, _ = _probe(4, 2)
    assert rvars == ("s1", "a3", "a4")
    expect = [Poly.linear(rvars, 1, s1=1, a3=1), Poly.linear(rvars, 1, s1=1, a4=1),
              Poly.linear(rvars, 1, s1=-1, a3=1), Poly.linear(rvars, 1, s1=-1, a4=1)]
    assert list(tangent) == expect and reps == (expect[0],)
    assert tangent_normal == product(expect) * Poly.linear(rvars, 0, a3=1, a4=1)


def test_verify_axioms_refuses_sym():
    with pytest.raises(ValueError, match="only available for the wedge family"):
        verify_axioms(OrbitId(S, 3, 1))


def test_restriction_degree_bound():
    # deg(c(T) e(N)) = binom(n,2) - (n-m)/2, and e(N) is never zero
    for n in (2, 3, 4, 5):
        for m in coranks(W, n):
            _, _, _, _, tangent_normal, bound = _probe(n, m)
            assert tangent_normal.total_degree() == bound == comb(n, 2) - (n - m) // 2


def test_probe_matches_hand_enumeration():
    # the probe's rule from the weights of V against the factors written
    # out by hand: 1 +- s_i +- s_j (i < j <= h) and 1 +- s_i + b_j tangent,
    # b_i + b_j normal, one representative per non-empty class
    def key(poly):
        return tuple(sorted(poly.terms.items()))

    for n in range(1, 8):
        for m in coranks(W, n):
            h = (n - m) // 2
            rvars, roots, tangent, reps, tangent_normal, bound = _probe(n, m)
            s = [Poly.variable(rvars, f"s{i}") for i in range(1, h + 1)]
            b = [Poly.variable(rvars, f"a{j}") for j in range(n - m + 1, n + 1)]
            signed = [(x, x.scale(-1)) for x in s]
            assert roots == sum(signed, ()) + tuple(b)
            pairs = [x + y + 1 for i, xs in enumerate(signed) for ys in signed[i + 1:]
                     for x in xs for y in ys]
            mixed = [x + y + 1 for xs in signed for x in xs for y in b]
            normal = [x + y for i, x in enumerate(b) for y in b[i + 1:]]
            assert Counter(map(key, tangent)) == Counter(map(key, pairs + mixed)), (n, m)
            assert tangent_normal == product(pairs + mixed + normal, rvars)
            assert bound == comb(n, 2) - h
            assert [key(f) for f in reps] == [key(c[0]) for c in (pairs, mixed) if c]
            assert {key(f) for f in reps} <= set(map(key, tangent))


@pytest.mark.parametrize("n,r", [(2, 0), (2, 2), (3, 1), (3, 3), (4, 0), (4, 2), (4, 4)])
def test_axioms_pass(n, r):
    assert verify_axioms(OrbitId(W, n, r)).ok


def test_axioms_negative_control():
    # adding a monomial at the e(N)-degree of the deepest orbit must break
    # the strict degree bound of axiom 3
    orbit = OrbitId(W, 4, 2)
    av = alpha_vars(4)
    c1 = Poly.linear(av, 0, a1=1, a2=1, a3=1, a4=1)
    report = verify_axioms(orbit, w_function(orbit).poly + c1 ** 6)
    assert not report.ok
    assert any(c.axiom3 is False for c in report.checks)


def test_axioms_vanishing_outside_closure():
    report = verify_axioms(OrbitId(W, 4, 2))
    entry = [c for c in report.checks if c.probe.r == 0][0]
    assert entry.vanishing is True


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), st.integers(0, 3), st.data())
def test_branching_restriction_matches_substitution(h, m, data):
    # s_lam(s_1, -s_1, ..., s_h, -s_h, b) by branching, one pair per step,
    # against the substitution of its alpha polynomial
    n = 2 * h + m
    if n == 0:
        return
    lam = partition(sorted(data.draw(st.lists(st.integers(0, 5), max_size=n)), reverse=True))
    expect = restrict(OrbitId(W, n, m), schur_dict_to_alpha({lam: 1}, n))
    assert dict(_restricted_schur(lam, h, m)) == expect.terms


def test_axiom_routes_agree_for_n_le_5():
    # the Schur-form verifier against the substitution route: every image
    # term for term, and the whole report
    for n in range(2, 6):
        for r in coranks(W, n):
            orbit = OrbitId(W, n, r)
            poly = w_function(orbit).poly
            for m in coranks(W, n):
                probe = OrbitId(W, n, m)
                assert restrict_schur(w_schur(orbit), probe) == \
                    restrict(probe, poly), (orbit, probe)
            report = verify_axioms(orbit)
            assert report.ok
            assert report == verify_axioms_by_substitution(orbit) == verify_axioms(orbit, poly)


def test_axiom_routes_agree_on_perturbed_candidates():
    av = alpha_vars(4)
    c1 = Poly.linear(av, 0, a1=1, a2=1, a3=1, a4=1)
    # c_1 vanishes at (4, 0) and has degree 1, so W_{4,0} + c_1 breaks only
    # the divisibility by c(T) at (4, 2), through the b-factors 1 +- s_1 + a_j
    orbit = OrbitId(W, 4, 0)
    bad = w_function(orbit).poly + c1
    for report in (verify_axioms(orbit, bad), verify_axioms_by_substitution(orbit, bad)):
        failed = [(c.probe.r, name) for c in report.checks
                  for name in ("axiom1", "axiom2", "axiom3", "vanishing")
                  if getattr(c, name) is False]
        assert failed == [(2, "axiom2")]
    # c_1^6 vanishes at (4, 0) and keeps its degree C(4, 2) = 6 at the
    # identity probe (4, 4), where it breaks the strict degree bound
    orbit = OrbitId(W, 4, 2)
    bad = w_function(orbit).poly + c1 ** 6
    report = verify_axioms(orbit, bad)
    assert report == verify_axioms_by_substitution(orbit, bad)
    assert [c.axiom3 for c in report.checks] == [True, None, False]


def test_axioms_refuse_an_asymmetric_candidate():
    orbit = OrbitId(W, 3, 1)
    poly = w_function(orbit).poly
    with pytest.raises(NotSymmetricError):
        verify_axioms(orbit, poly + Poly.variable(poly.vars, "a1"))
    with pytest.raises(NotSymmetricError):
        verify_axioms(orbit, Poly(alpha_vars(4), {(1, 1, 1, 1): 1}))
    with pytest.raises(NotSymmetricError):  # symmetric, but a Laurent polynomial
        verify_axioms(orbit, Poly(alpha_vars(3), {(-1, 0, 0): 1, (0, -1, 0): 1, (0, 0, -1): 1}))


def test_axioms_read_dict_keys_as_partitions():
    # a key padded with a zero names the same s_lam, and two keys of one
    # partition add up: W_{4,r} keyed either way passes
    for r in (0, 2, 4):
        orbit = OrbitId(W, 4, r)
        w = w_schur(orbit)
        padded = {lam + (0,): c for lam, c in w.items()}
        split = {**{lam: c - 1 for lam, c in w.items()}, **{lam + (0,): 1 for lam in w}}
        assert verify_axioms(orbit, padded).ok and verify_axioms(orbit, split).ok
    with pytest.raises(ValueError, match="not weakly decreasing"):
        verify_axioms(OrbitId(W, 4, 2), {(1, 2): 1})
