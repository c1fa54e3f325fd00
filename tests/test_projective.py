"""Projectivization, the J involution, section tables, closed formulas."""

import random
from fractions import Fraction
from math import comb

from csmloci.orbits import Family, OrbitId, ambient_dim, coranks
from csmloci.poly import Poly
from csmloci.oracles import truncate
from csmloci.projective import (aluffi_J, closed_invariants, derived_invariants,
                                euler_char_table, gamma_coeffs, projectivize,
                                section_euler_chars)

W, S = Family.WEDGE, Family.SYM

TABLE_SYM_3 = {
    0: [0, 1, -1, 3, -1, 1],
    1: [3, 2, 1, 0, 3, 0],
    2: [3, 2, 4, 0, 0, 0],
}

TABLE_WEDGE_6 = {
    0: [0, -1, 1, -3, 5, -11, 21, -29, 29, -21, 11, -5, 3, -1, 1],
    2: [0, 3, 0, 9, -6, 27, -36, 51, -36, 27, -6, 9, 0, 3, 0],
    4: [15, 12, 12, 6, 12, -6, 24, -14, 14, 0, 0, 0, 0, 0, 0],
}


def xi_poly(coeffs):
    return Poly(("xi",), {(i,): c for i, c in enumerate(coeffs) if c})


def test_projectivize_sym3_printed():
    assert projectivize(OrbitId(S, 3, 0)).coeffs == [1, 3, 6, 6, 3, 0]
    assert projectivize(OrbitId(S, 3, 1)).coeffs == [0, 3, 9, 10, 6, 3]
    assert projectivize(OrbitId(S, 3, 2)).coeffs == [0, 0, 0, 4, 6, 3]


def test_projectivize_agrees_with_direct_substitution():
    # substituting a_i -> xi/2 into the exact csm polynomial, reduced mod
    # xi^N, reproduces the hook-content route
    from csmloci.interp import w_function
    orbit = OrbitId(S, 3, 1)
    poly = w_function(orbit).poly
    half = Poly(("xi",), {(1,): Fraction(1, 2)})
    images = {v: half for v in poly.vars}
    direct = truncate(poly.substitute(images, ("xi",)), ambient_dim(S, 3) - 1)
    assert direct == xi_poly(projectivize(orbit).coeffs)
    assert direct == Poly(("xi",), {(1,): 3, (2,): 9, (3,): 10, (4,): 6, (5,): 3})


def test_projectivize_coeffs_are_the_callers_own():
    # the coefficients are cached; editing a returned list must not reach them
    orbit = OrbitId(S, 3, 1)
    ssm = list(projectivize(orbit, kind="ssm").coeffs)
    projectivize(orbit).coeffs[1] = 99
    projectivize(orbit, kind="ssm").coeffs.clear()
    assert projectivize(orbit).coeffs == [0, 3, 9, 10, 6, 3]
    assert projectivize(orbit, kind="ssm").coeffs == ssm


def test_projectivize_point_orbit_vanishes():
    assert all(c == 0 for c in projectivize(OrbitId(S, 3, 3)).coeffs)
    assert all(c == 0 for c in projectivize(OrbitId(W, 4, 4)).coeffs)


def test_projectivize_sum_is_ambient_chern():
    for fam in (W, S):
        for n in range(2, 6):
            N = ambient_dim(fam, n)
            tot = [0] * N
            for r in coranks(fam, n):
                tot = [a + b for a, b in zip(tot, projectivize(OrbitId(fam, n, r)).coeffs)]
            assert tot == [comb(N, i) for i in range(N)]


def test_projectivize_ssm_variant():
    # ssm = csm / (1+xi)^N, checked by re-multiplying
    pc = projectivize(OrbitId(S, 3, 1), kind="ssm")
    cs = projectivize(OrbitId(S, 3, 1))
    N = pc.ambient
    back = [sum(pc.coeffs[j] * comb(N, i - j) for j in range(i + 1)) for i in range(N)]
    assert back == cs.coeffs


def test_aluffi_J_printed_example():
    assert aluffi_J([3, 6, 4]) == Poly(("t",), {(0,): 3, (1,): -2, (2,): 4})


def test_aluffi_J_is_involution():
    rng = random.Random(31)
    tv = ("t",)
    for _ in range(20):
        p = Poly(tv, {(i,): rng.randint(-9, 9) for i in range(rng.randint(1, 21))})
        assert aluffi_J(aluffi_J(p)) == p
        if not p.is_zero():
            assert aluffi_J(p).total_degree() <= p.total_degree()


def J_by_division(p):
    """(t p(-t-1) + p(0)) / (t+1), the definition of J, by substitution and
    exact division."""
    tv = ("t",)
    num = Poly.variable(tv, "t") * p.substitute({"t": Poly.linear(tv, -1, t=-1)}, tv)
    return (num + Poly.const(tv, p.coefficient((0,)))).exact_divide(Poly.linear(tv, 1, t=1))


def test_aluffi_J_matches_its_definition():
    # the identity map would pass the involution test alone
    rng = random.Random(37)
    for trial in range(60):
        coeffs = [rng.randint(-9, 9) if trial % 2 else Fraction(rng.randint(-9, 9),
                                                                rng.randint(1, 6))
                  for _ in range(rng.randint(0, 16))]
        p = Poly(("t",), {(i,): c for i, c in enumerate(coeffs)})
        assert aluffi_J(p) == J_by_division(p)
        assert aluffi_J(coeffs) == J_by_division(p)


def test_aluffi_J_identity_on_constants():
    assert aluffi_J([5]) == Poly(("t",), {(0,): 5})


def test_euler_table_sym3():
    tab = euler_char_table(S, 3)
    assert tab.coranks == [0, 1, 2]
    assert {r: row for r, row in zip(tab.coranks, tab.rows)} == TABLE_SYM_3
    assert tab.column_sums() == [6, 5, 4, 3, 2, 1]


def test_euler_table_wedge6():
    tab = euler_char_table(W, 6)
    assert tab.coranks == [0, 2, 4]
    assert {r: row for r, row in zip(tab.coranks, tab.rows)} == TABLE_WEDGE_6
    assert tab.column_sums() == list(range(15, 0, -1))


def test_euler_table_column_sums_are_projective_spaces():
    for fam, n in [(W, 4), (W, 5), (S, 2), (S, 4)]:
        tab = euler_char_table(fam, n)
        N = ambient_dim(fam, n)
        assert tab.column_sums() == [N - i for i in range(N)]


def test_closure_table_rows_are_suborbit_sums():
    tab = euler_char_table(S, 3, closure=True)
    orbit_tab = euler_char_table(S, 3)
    # closure rows: cumulative sums of orbit rows from below (the r=2 closure
    # also contains the empty projectivization of the zero orbit)
    for idx, r in enumerate(tab.coranks):
        expect = [sum(col) for col in zip(*orbit_tab.rows[idx:])]
        assert tab.rows[idx] == expect


def test_closed_invariants_printed_cases():
    ci = closed_invariants(OrbitId(S, 3, 2))
    assert (ci.codim, ci.degree, ci.euler_char) == (3, 4, 3)
    ci = closed_invariants(OrbitId(W, 6, 4))
    assert (ci.codim, ci.degree, ci.euler_char) == (6, 14, 15)
    # Veronese and Pluecker degrees
    assert closed_invariants(OrbitId(S, 3, 1)).degree == 3
    assert closed_invariants(OrbitId(W, 4, 2)).degree == 2


def test_closed_vs_derived_all_orbits_up_to_5():
    for fam in (W, S):
        for n in range(1, 6):
            for r in coranks(fam, n):
                orbit = OrbitId(fam, n, r)
                ci, di = closed_invariants(orbit), derived_invariants(orbit)
                assert (ci.codim, ci.degree, ci.euler_char) == \
                    (di.codim, di.degree, di.euler_char), orbit


def test_chi_top_coefficient():
    # coefficient of xi^(N-1) is the Euler characteristic of the orbit
    assert projectivize(OrbitId(S, 3, 0)).integral() == 0
    assert projectivize(OrbitId(S, 3, 1)).integral() == 3
    assert projectivize(OrbitId(S, 3, 2)).integral() == 3


def test_gamma_and_sections_roundtrip():
    pc = projectivize(OrbitId(S, 3, 2))
    assert gamma_coeffs(pc) == [3, 6, 4, 0, 0, 0]
    assert section_euler_chars(pc) == TABLE_SYM_3[2]


def test_charpoly_pair():
    # gamma_X and chi_X = J(gamma_X) have equal degrees, and J is an involution
    gamma = Poly(("t",), {(i,): c for i, c in
                          enumerate(gamma_coeffs(projectivize(OrbitId(S, 3, 2)))) if c})
    chi = aluffi_J(gamma)
    assert gamma == Poly(("t",), {(0,): 3, (1,): 6, (2,): 4})
    assert chi == Poly(("t",), {(0,): 3, (1,): -2, (2,): 4})
    assert aluffi_J(chi) == gamma
    assert gamma.total_degree() == chi.total_degree()
