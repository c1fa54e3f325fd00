"""W-functions, restriction data and the interpolation axiom verifier."""

import random
from fractions import Fraction

import pytest

from csmloci.classes import add_schur
from csmloci.interp import (csm_class, csm_to_ssm, restriction_data, ssm_interp,
                            ssm_interp_schur, verify_axioms, w_function, w_inner_value,
                            w_schur, w_value)
from csmloci.orbits import Family, OrbitId, alpha_vars, coranks, total_chern
from csmloci.partitions import staircase
from csmloci.poly import Poly
from csmloci.schur import schur_dict_to_alpha, schur_dict_value, to_chern_basis
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


def test_w_symmetric_and_integral():
    for fam in (W, S):
        for n in range(1, 5):
            for r in coranks(fam, n):
                wf = w_function(OrbitId(fam, n, r))
                assert wf.poly.is_symmetric()
                assert all(isinstance(c, int) for c in wf.poly.terms.values())
                assert wf.top_degree() == wf.expected_top_degree()


def test_w_top_degree_n5():
    for fam in (W, S):
        for r in coranks(fam, 5):
            wf = w_function(OrbitId(fam, 5, r))
            assert wf.top_degree() == wf.expected_top_degree()


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
    from csmloci.schur import to_schur_basis
    for fam in (W, S):
        for n in range(1, 7):
            total = add_schur(*[w_schur(OrbitId(fam, n, r)) for r in coranks(fam, n)])
            assert total == to_schur_basis(total_chern(fam, n), n)


def test_cached_results_are_read_only():
    from csmloci.schur import _elementary_schur
    from csmloci.sieve import euler_numbers, phi_cv_schur, phi_schur
    orbit = OrbitId(S, 3, 1)
    before = csm_class(orbit).payload
    for cached in (w_schur(orbit), w_schur(OrbitId(S, 3, 0)),
                   phi_schur(orbit, 4), phi_schur(OrbitId(S, 3, 0), 4),
                   ssm_interp_schur(orbit, 4), ssm_interp_schur(OrbitId(S, 3, 0), 4),
                   phi_cv_schur(orbit), phi_cv_schur(OrbitId(S, 3, 0)),
                   _elementary_schur((1, 2, 0), 3)):
        with pytest.raises(TypeError):
            cached[()] = 999
    with pytest.raises(TypeError):
        euler_numbers(4)[2] = 7
    assert csm_class(orbit).payload == before
    assert euler_numbers(4) == (1, 0, -1, 0, 5)


def test_csm_to_ssm_example():
    cls = csm_to_ssm(csm_class(OrbitId(W, 2, 2)), 4)
    assert cls.chern_poly() == cpoly(2, {(1, 0): 1, (2, 0): -1, (3, 0): 1, (4, 0): -1})


def test_csm_to_ssm_degree_zero():
    cls = csm_to_ssm(csm_class(OrbitId(W, 2, 0)), 0)
    assert cls.payload == {(): 1}


def test_cross_route_equality():
    for fam in (W, S):
        for n in range(1, 5):
            for r in coranks(fam, n):
                orbit = OrbitId(fam, n, r)
                assert ssm_interp(orbit, 6).payload == ssm_sieve(orbit, 6).payload
                # the kernel ssm against the series division of csm by c(V)
                assert ssm_interp(orbit, 6).payload == \
                    csm_to_ssm(csm_class(orbit), 6).payload
                assert ssm_interp(orbit, 6, closure=True).payload == \
                    ssm_sieve(orbit, 6, closure=True).payload
        for n in range(1, 6):
            for r in coranks(fam, n):
                orbit = OrbitId(fam, n, r)
                assert ssm_interp_schur(orbit, 12) == ssm_schur(orbit, 12)


def test_stable_schur_output():
    # coefficients of long partitions become visible at the level where the
    # partition fits; restricting the stable output reproduces each level
    from csmloci.interp import ssm_stable_schur
    stable = ssm_stable_schur(W, 0, 4)
    assert (1, 1, 1, 1) in stable
    for n in (2, 4):
        level = ssm_sieve(OrbitId(W, n, 0), 4).payload
        assert {lam: c for lam, c in stable.items() if len(lam) <= n} == level
    stable_s = ssm_stable_schur(S, 1, 3)
    assert stable_s[(1, 1, 1)] == 8
    for n in (1, 2, 3):
        level = ssm_sieve(OrbitId(S, n, 1), 3).payload
        assert {lam: c for lam, c in stable_s.items() if len(lam) <= n} == level


def test_restriction_data_smallest():
    data = restriction_data(OrbitId(W, 2, 0))
    assert data.substitution["a1"] == Poly.variable(data.vars, "s1")
    assert data.substitution["a2"] == Poly.variable(data.vars, "s1").scale(-1)
    assert data.tangent_chern == Poly.const(data.vars, 1)
    assert data.normal_euler == Poly.const(data.vars, 1)


def test_restriction_data_full_corank():
    from csmloci.orbits import euler_class
    data = restriction_data(OrbitId(W, 3, 3))
    assert data.vars == alpha_vars(3)
    assert data.normal_euler == euler_class(W, 3)
    assert all(data.substitution[v] == Poly.variable(data.vars, v) for v in data.vars)


def test_restriction_data_4_2():
    data = restriction_data(OrbitId(W, 4, 2))
    assert data.vars == ("s1", "a3", "a4")
    assert data.normal_euler == Poly.linear(data.vars, 0, a3=1, a4=1)
    expect = Poly.linear(data.vars, 1, s1=1, a3=1) * Poly.linear(data.vars, 1, s1=-1, a3=1) \
        * Poly.linear(data.vars, 1, s1=1, a4=1) * Poly.linear(data.vars, 1, s1=-1, a4=1)
    assert data.tangent_chern == expect


def test_restriction_data_sym_unavailable():
    with pytest.raises(ValueError):
        restriction_data(OrbitId(S, 3, 1))


def test_restriction_degree_bound():
    # deg(c(T) e(N)) = binom(n,2) - (n-m)/2, and e(N) is never zero
    from math import comb
    for n in (2, 3, 4, 5):
        for m in coranks(W, n):
            data = restriction_data(OrbitId(W, n, m))
            prod = data.tangent_chern * data.normal_euler
            assert not data.normal_euler.is_zero()
            assert prod.total_degree() == data.bound_degree() == \
                comb(n, 2) - (n - m) // 2


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
