"""Invariant suites behind the `verify` CLI command.

Each suite takes the largest n to check (core ignores it) and returns
(ok, lines): report lines plus an overall flag.  The cross and conjecture
suites truncate the ssm classes at degree D = 6.  The conjecture suite is
report-only: findings are logged, never failures.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .classes import add_schur
from .orbits import Family, OrbitId, alpha_vars, codim, coranks
from .partitions import staircase
from .poly import Poly, TruncSeries

D = 6


def _rand_poly(rng, variables, max_deg=3):
    terms = {}
    nv = len(variables)
    for _ in range(4):
        e = tuple(rng.randint(0, max_deg) for _ in range(nv))
        if sum(e) > max_deg + 2:
            continue
        terms[e] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Poly(variables, terms)


def suite_core(max_n):
    """Ring laws, inversion, exact division, substitution, Euler numbers."""
    from .catalog import TABULATED_EULER, euler_number_warnings
    from .sieve import binomial_matrix, euler_numbers, invert_binomial_matrix
    rng = random.Random(20240901)
    lines, ok = [], True
    av = alpha_vars(3)

    for trial in range(20):
        a, b, c = (_rand_poly(rng, av) for _ in range(3))
        assoc = (a * b) * c == a * (b * c)
        distr = a * (b + c) == a * b + a * c
        ok &= assoc and distr
        if not (assoc and distr):
            lines.append(f"FAIL ring law on trial {trial}")
    lines.append(f"{'PASS' if ok else 'FAIL'} ring laws (20 random triples)")

    div_ok = True
    for _ in range(20):
        a, b = _rand_poly(rng, av), _rand_poly(rng, av)
        if b.is_zero():
            continue
        div_ok &= (a * b).exact_divide(b) == a
    ok &= div_ok
    lines.append(f"{'PASS' if div_ok else 'FAIL'} exact_divide(a*b, b) == a")

    inv_ok = True
    for _ in range(10):
        p = _rand_poly(rng, av, max_deg=2) + Poly.const(av, rng.randint(1, 5))
        s = TruncSeries(p, 6)
        inv_ok &= (s * s.invert()).poly == Poly.const(av, 1)
    ok &= inv_ok
    lines.append(f"{'PASS' if inv_ok else 'FAIL'} series inversion is two-sided up to degree")

    sub_ok = True
    tv = ("s1", "s2")
    images = {"a1": Poly.linear(tv, 1, s1=2), "a2": Poly.variable(tv, "s2"),
              "a3": Poly.linear(tv, 0, s1=1, s2=-1)}
    for _ in range(10):
        p, q = _rand_poly(rng, av), _rand_poly(rng, av)
        sub_ok &= (p * q).substitute(images, tv) == \
            p.substitute(images, tv) * q.substitute(images, tv)
    ok &= sub_ok
    lines.append(f"{'PASS' if sub_ok else 'FAIL'} substitution is a ring morphism")

    E = euler_numbers(10)
    e_ok = all(E[i] == TABULATED_EULER[i] for i in (0, 2, 4, 6, 8))
    ok &= e_ok
    lines.append(f"{'PASS' if e_ok else 'FAIL'} Euler numbers E_0..E_8 match the table")
    for w in euler_number_warnings(E):
        lines.append(f"WARN {w}")

    m_ok = True
    for parity in ("even", "odd"):
        for m in range(0, 6):
            A, B = binomial_matrix(m, parity), invert_binomial_matrix(m, parity)
            prod = [[sum(A[i][k] * B[k][j] for k in range(m + 1))
                     for j in range(m + 1)] for i in range(m + 1)]
            m_ok &= prod == [[int(i == j) for j in range(m + 1)] for i in range(m + 1)]
    ok &= m_ok
    lines.append(f"{'PASS' if m_ok else 'FAIL'} binomial matrix inverse identity (m <= 5)")
    return ok, lines


def suite_axioms(max_n):
    """Interpolation axioms for every skew-symmetric orbit with n <= max_n."""
    from .interp import verify_axioms, w_function
    lines, ok = [], True
    for n in range(2, max_n + 1):
        for r in coranks(Family.WEDGE, n):
            orbit = OrbitId(Family.WEDGE, n, r)
            rep = verify_axioms(orbit)
            ok &= rep.ok
            lines.append(f"{'PASS' if rep.ok else 'FAIL'} axioms for {orbit}")
    if max_n >= 4:
        orbit = OrbitId(Family.WEDGE, 4, 2)
        av = alpha_vars(4)
        c1 = Poly(av, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 1): 1})
        bad = verify_axioms(orbit, w_function(orbit).poly + c1 ** 6)
        caught = any(c.axiom3 is False for c in bad.checks)
        ok &= caught
        lines.append(f"{'PASS' if caught else 'FAIL'} degree-perturbed control fails axiom 3")
    return ok, lines


def suite_cross(max_n):
    """Sieve route vs interpolation route, plus normalization."""
    from .interp import ssm_interp
    from .sieve import ssm_schur, ssm_sieve
    lines, ok = [], True
    for family in (Family.WEDGE, Family.SYM):
        for n in range(1, max_n + 1):
            for r in coranks(family, n):
                orbit = OrbitId(family, n, r)
                same = ssm_interp(orbit, D).payload == ssm_sieve(orbit, D).payload
                ok &= same
                lines.append(f"{'PASS' if same else 'FAIL'} sieve == interpolation for {orbit} (D={D})")
    for family in (Family.WEDGE, Family.SYM):
        for n in range(1, max_n + 1):
            tot = add_schur(*[ssm_schur(OrbitId(family, n, r), D)
                              for r in coranks(family, n)])
            good = tot == {(): 1}
            ok &= good
            lines.append(f"{'PASS' if good else 'FAIL'} sum of orbit ssm classes is 1 "
                         f"({family}, n={n}, D={D})")
    return ok, lines


def suite_conjectures(max_n):
    """Report-only observations: Schur sign alternation, lowest terms,
    the motivic normalization probe and catalogued print discrepancies."""
    from .catalog import SYM_LOWEST_TERM_NOTE, compare_phi_wedge_3
    from .ktheory import KSCOPE_MAX_N, motivic_segre_sieve
    from .sieve import phi_class, ssm_sieve
    lines = []
    for family in (Family.WEDGE, Family.SYM):
        for n in range(1, max_n + 1):
            for r in coranks(family, n):
                orbit = OrbitId(family, n, r)
                cls = ssm_sieve(orbit, D)
                cod = codim(orbit)
                alternating = all(
                    (c > 0) == ((sum(lam) - cod) % 2 == 0) and c != 0
                    for lam, c in cls.payload.items())
                low, lowest = cls.lowest_term()
                expected = staircase(r) if family is Family.WEDGE else \
                    tuple(range(r, 0, -1))
                coeff = 1 if family is Family.WEDGE else 2 ** r
                low_ok = low == cod and lowest == ({expected: coeff} if r or family is Family.SYM
                                                   else {(): 1})
                lines.append(
                    f"{'OBSERVED' if alternating else 'COUNTEREXAMPLE'} sign alternation "
                    f"for ssm({orbit}), D={D}")
                lines.append(
                    f"{'OBSERVED' if low_ok else 'DEVIATES'} lowest term of ssm({orbit}): "
                    f"degree {low}, coefficient {coeff} on the staircase")
    lines.append(f"NOTE {SYM_LOWEST_TERM_NOTE}")

    rng = random.Random(3456)
    n = min(2, KSCOPE_MAX_N)
    vals_ok = True
    for _ in range(10):
        alphas = [Fraction(rng.randint(2, 40), rng.randint(1, 5)) for _ in range(n)]
        if len(set(alphas)) < n:
            continue
        y = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        pt = {f"a{i + 1}": alphas[i] for i in range(n)}
        pt["y"] = y
        total = sum((motivic_segre_sieve(n, r).value.eval(pt)
                     for r in coranks(Family.WEDGE, n)), Fraction(0))
        vals_ok &= total == 1
    lines.append(f"{'OBSERVED' if vals_ok else 'DEVIATES'} motivic Segre classes of "
                 f"Lambda^2 C^{n} sum to 1 at random points (not asserted)")

    for r in (1, 3):
        warn = compare_phi_wedge_3(r, phi_class(OrbitId(Family.WEDGE, 3, r), 7).chern_poly())
        for w in warn:
            lines.append(f"WARN {w}")
    return True, lines


SUITES = {
    "core": suite_core,
    "axioms": suite_axioms,
    "cross": suite_cross,
    "conjectures": suite_conjectures,
}
