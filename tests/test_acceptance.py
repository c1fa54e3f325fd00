"""Acceptance suite.

Every numbered criterion below runs at its stated (exact) tolerance and
prints one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
to see the lines.  Report-only criteria print their findings and never
fail the build.
"""

import random
from fractions import Fraction
from math import comb

from csmloci.classes import add_schur
from csmloci.orbits import Family, OrbitId, alpha_vars, coranks, total_chern
from csmloci.poly import Poly

W, S = Family.WEDGE, Family.SYM


def report(name, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, name


def cpoly(n, terms):
    return Poly(tuple(f"c{i}" for i in range(1, n + 1)), terms)


def test_c1_printed_w_values():
    from csmloci.interp import w_function
    from csmloci.schur import to_chern_basis
    expected = {
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
    ok = True
    for (fam, n, r), terms in expected.items():
        got = to_chern_basis(w_function(OrbitId(fam, n, r)).poly)
        ok &= got == cpoly(n, terms)
    report("C1 printed W-function values (exact)", ok)


def test_c2_sieve_reproduction():
    from csmloci.catalog import phi_wedge_3_divergences
    from csmloci.sieve import phi_class, ssm_sieve
    ok = ssm_sieve(OrbitId(W, 2, 0), 4).chern_poly() == \
        cpoly(2, {(0, 0): 1, (1, 0): -1, (2, 0): 1, (3, 0): -1, (4, 0): 1})
    ok &= ssm_sieve(OrbitId(S, 2, 1), 2).chern_poly() == cpoly(2, {(1, 0): 2, (2, 0): -4})
    ok &= phi_class(OrbitId(S, 2, 1), 5).chern_poly() == \
        cpoly(2, {(1, 0): 2, (2, 0): -4, (3, 0): 8, (4, 0): -16, (2, 1): 8,
                  (5, 0): 32, (3, 1): -40})
    ok &= phi_class(OrbitId(S, 2, 2), 5).chern_poly() == \
        cpoly(2, {(1, 1): 4, (2, 1): -12, (3, 1): 28, (1, 2): -16})

    # term-by-term comparison of the skew n=3 Phi series with the tabulated
    # text: degrees <= 4 must agree; higher-degree divergences are logged
    # (frozen below), never patched into the computation
    divergent_monomials = {
        1: {(0, 1, 1), (1, 2, 0), (2, 0, 1), (3, 1, 0),
            (1, 1, 1), (2, 2, 0), (3, 0, 1), (4, 1, 0),
            (0, 2, 1), (2, 1, 1), (3, 2, 0), (4, 0, 1), (5, 1, 0)},
        3: {(0, 1, 1), (1, 2, 0), (2, 0, 1), (3, 1, 0),
            (1, 1, 1), (2, 2, 0), (3, 0, 1), (4, 1, 0),
            (2, 1, 1), (3, 2, 0), (4, 0, 1), (5, 1, 0)},
    }
    logged = 0
    for r in (1, 3):
        diffs, misprints = phi_wedge_3_divergences(
            r, phi_class(OrbitId(W, 3, r), 7).chern_poly())
        low = {e for e in diffs if sum((i + 1) * x for i, x in enumerate(e)) <= 4}
        ok &= not low
        ok &= set(diffs) == divergent_monomials[r]
        logged += len(diffs) + len(misprints)
        if r == 3:
            ok &= misprints == [(7, (3, 1, 0), 12)]
    report("C2 sieve reproduction + Phi(wedge,3) print comparison", ok,
           f"{logged} tabulation divergences logged, degrees <= 4 agree")


def test_c3_cross_route_equality():
    from csmloci.interp import ssm_interp
    from csmloci.sieve import ssm_sieve
    ok = True
    count = 0
    for fam in (W, S):
        for n in range(1, 5):
            for r in coranks(fam, n):
                orbit = OrbitId(fam, n, r)
                ok &= ssm_interp(orbit, 6).payload == ssm_sieve(orbit, 6).payload
                count += 1
    report("C3 sieve route == interpolation route (n <= 4, D=6)", ok,
           f"{count} orbits")


def test_c4_schur_expansions():
    from csmloci.sieve import ssm_schur
    wedge40 = {
        (): 1, (1,): -1, (2,): 1, (1, 1): 1,
        (3,): -1, (2, 1): -2, (1, 1, 1): -1,
        (4,): 1, (2, 2): 2, (3, 1): 3, (2, 1, 1): 3, (1, 1, 1, 1): 1,
        (5,): -1, (3, 2): -5, (4, 1): -4, (2, 2, 1): -5, (3, 1, 1): -6, (2, 1, 1, 1): -4,
    }
    sym32 = {
        (2, 1): 4,
        (2, 2): -12, (3, 1): -12, (2, 1, 1): -12,
    }
    got40 = ssm_schur(OrbitId(W, 4, 0), 5)
    got32 = {lam: c for lam, c in ssm_schur(OrbitId(S, 3, 2), 4).items()}
    ok = got40 == wedge40 and got32 == sym32
    report("C4 Schur expansions match the printed lists", ok)


def test_c5_interpolation_axioms():
    from csmloci.interp import verify_axioms, w_function
    ok = True
    count = 0
    for n in range(2, 6):
        for r in coranks(W, n):
            rep = verify_axioms(OrbitId(W, n, r))
            ok &= rep.ok
            count += 1
    orbit = OrbitId(W, 4, 2)
    av = alpha_vars(4)
    c1 = Poly.linear(av, 0, a1=1, a2=1, a3=1, a4=1)
    bad = verify_axioms(orbit, w_function(orbit).poly + c1 ** 6)
    control = (not bad.ok) and any(c.axiom3 is False for c in bad.checks)
    ok &= control
    report("C5 interpolation axioms (wedge, n <= 5) + negative control", ok,
           f"{count} orbits, control perturbation caught")


def test_c6_normalization():
    from csmloci.sieve import ssm_schur
    ok = True
    for fam in (W, S):
        for n in range(1, 6):
            total = add_schur(*[ssm_schur(OrbitId(fam, n, r), 6)
                                for r in coranks(fam, n)])
            ok &= total == {(): 1}
    report("C6 sum of orbit ssm classes is 1 (n <= 5, D=6, both families)", ok)


def test_c7_projective_layer():
    from csmloci.projective import (closed_invariants, derived_invariants,
                                    euler_char_table, projectivize)
    ok = projectivize(OrbitId(S, 3, 0)).coeffs == [1, 3, 6, 6, 3, 0]
    ok &= projectivize(OrbitId(S, 3, 1)).coeffs == [0, 3, 9, 10, 6, 3]
    ok &= projectivize(OrbitId(S, 3, 2)).coeffs == [0, 0, 0, 4, 6, 3]

    tab1 = euler_char_table(S, 3)
    ok &= tab1.rows == [[0, 1, -1, 3, -1, 1], [3, 2, 1, 0, 3, 0], [3, 2, 4, 0, 0, 0]]
    ok &= tab1.column_sums() == [6, 5, 4, 3, 2, 1]
    tab2 = euler_char_table(W, 6)
    ok &= tab2.rows == [
        [0, -1, 1, -3, 5, -11, 21, -29, 29, -21, 11, -5, 3, -1, 1],
        [0, 3, 0, 9, -6, 27, -36, 51, -36, 27, -6, 9, 0, 3, 0],
        [15, 12, 12, 6, 12, -6, 24, -14, 14, 0, 0, 0, 0, 0, 0]]
    ok &= tab2.column_sums() == list(range(15, 0, -1))

    count = 0
    for fam in (W, S):
        for n in range(1, 7):
            for r in coranks(fam, n):
                orbit = OrbitId(fam, n, r)
                ci, di = closed_invariants(orbit), derived_invariants(orbit)
                ok &= (ci.codim, ci.degree, ci.euler_char) == \
                    (di.codim, di.degree, di.euler_char)
                count += 1
    report("C7 projective layer: printed classes, Tables, closed formulas", ok,
           f"closed == class-derived for {count} orbits with n <= 6")


def test_c8_euler_number_layer():
    from csmloci.catalog import EULER_E10_WARNING, euler_number_warnings
    from csmloci.sieve import binomial_matrix, euler_numbers, invert_binomial_matrix
    E = euler_numbers(10)
    ok = E[:9] == (1, 0, -1, 0, 5, 0, -61, 0, 1385)
    ok &= invert_binomial_matrix(3, "even") == [
        [1, -1, 5, -61], [0, 1, -6, 75], [0, 0, 1, -15], [0, 0, 0, 1]]
    for parity in ("even", "odd"):
        for m in range(0, 6):
            A, B = binomial_matrix(m, parity), invert_binomial_matrix(m, parity)
            prod = [[sum(A[i][k] * B[k][j] for k in range(m + 1))
                     for j in range(m + 1)] for i in range(m + 1)]
            ok &= prod == [[int(i == j) for j in range(m + 1)] for i in range(m + 1)]
    warnings = euler_number_warnings(E)
    ok &= warnings == [EULER_E10_WARNING]
    print(f"\nwarning: {EULER_E10_WARNING}")
    report("C8 Euler numbers, inverse binomial matrices, E_10 warning", ok)


def test_c9_mather_layer():
    from csmloci.mather import chern_mather_wedge, euler_obstruction_wedge
    from csmloci.schur import schur_dict_value
    ok = True
    for n in range(2, 7):
        for r in coranks(W, n):
            got = euler_obstruction_wedge(n, r)
            ok &= got == [comb(r // 2 + k, r // 2) for k in range((n - r) // 2 + 1)]
    for n in (2, 4):
        ok &= chern_mather_wedge(n, 0).alpha_poly() == total_chern(W, n)
    # n = 6 checked at random rational points (exact arithmetic)
    rng = random.Random(2718)
    cm6 = chern_mather_wedge(6, 0).payload
    for _ in range(3):
        pt = [Fraction(v, 7) for v in rng.sample(range(2, 60), 6)]
        lhs = schur_dict_value(cm6, pt)
        rhs = 1
        for i in range(6):
            for j in range(i + 1, 6):
                rhs *= 1 + pt[i] + pt[j]
        ok &= lhs == rhs
    report("C9 Euler obstructions (n <= 6) and Chern-Mather of the full space", ok)


def test_c10_k_theory_layer():
    from csmloci.ktheory import motivic_segre_sieve, phi_wedge_k, q_euler_numbers
    from csmloci.sieve import euler_numbers
    ok = q_euler_numbers(10).at_q1() == euler_numbers(10)

    rng = random.Random(424242)
    frac = phi_wedge_k(4, 2).value
    for _ in range(10):
        alphas = [Fraction(v, 5) for v in rng.sample(range(2, 90), 4)]
        y = Fraction(rng.randint(1, 12), 5)
        perm = rng.sample(range(4), 4)
        pt = {f"a{i + 1}": alphas[i] for i in range(4)}
        ppt = {f"a{i + 1}": alphas[perm[i]] for i in range(4)}
        pt["y"] = ppt["y"] = y
        ok &= frac.eval(pt) == frac.eval(ppt)

    agree = 0
    for _ in range(10):
        alphas = [Fraction(v, 3) for v in rng.sample(range(2, 80), 2)]
        y = Fraction(rng.randint(1, 9), 4)
        pt = {"a1": alphas[0], "a2": alphas[1], "y": y}
        total = motivic_segre_sieve(2, 0).value.eval(pt) + \
            motivic_segre_sieve(2, 2).value.eval(pt)
        agree += total == 1
    print(f"\nmotivic normalization probe (reported): {agree}/10 points sum to 1")
    report("C10 K layer: q-Euler specialization, symmetry, motivic probe", ok)


def test_c11_sign_alternation_reported():
    from csmloci.orbits import codim
    from csmloci.sieve import ssm_schur
    findings = []
    for fam in (W, S):
        for n in range(1, 5):
            for r in coranks(fam, n):
                orbit = OrbitId(fam, n, r)
                cod = codim(orbit)
                for lam, c in ssm_schur(orbit, 6).items():
                    if (c > 0) != ((sum(lam) - cod) % 2 == 0):
                        findings.append((str(orbit), lam, c))
    if findings:
        print(f"\nsign-alternation counterexamples (reported only): {findings}")
    else:
        print("\nsign alternation of Schur coefficients observed (n <= 4, D <= 6)")
    report("C11 sign-alternation conjecture scan (report-only)", True,
           f"{len(findings)} counterexamples found")
