"""Previously tabulated expansions kept for cross-checking, with their
known divergences from recomputed values.

Whenever the library reproduces a quantity that has appeared in print, the
printed form is frozen here and compared against the computed one; any
mismatch is surfaced as a structured warning, never silently patched.
"""

from __future__ import annotations

from .emit import poly_text
from .orbits import chern_vars
from .poly import Poly
from .schur import chern_weighted_degree

# 1/cosh coefficients as printed alongside the sieve inverse; the final
# entry disagrees with exact series inversion (computed E_10 = -50521).
TABULATED_EULER = {0: 1, 2: -1, 4: 5, 6: -61, 8: 1385, 10: -50512}

EULER_E10_WARNING = (
    "tabulated E_10 = -50512 disagrees with exact series inversion of cosh, "
    "which gives E_10 = -50521; the computed value is used")

SYM_LOWEST_TERM_NOTE = (
    "lowest Schur term of the symmetric-family classes carries coefficient "
    "2^r (as computed and as shown by the degree-r expansions), not the "
    "2^(r-1) sometimes quoted for the fundamental class")

# Phi series for the skew 3x3 case as printed, bracketed by total degree.
# Keys are exponent tuples over (c1, c2, c3).
TABULATED_PHI_WEDGE_3 = {
    1: [
        (0, {(0, 0, 0): 1}),
        (3, {(1, 1, 0): 2, (0, 0, 1): -2}),
        (4, {(2, 1, 0): -4, (1, 0, 1): 4}),
        (5, {(3, 1, 0): 4, (1, 2, 0): 2, (2, 0, 1): -4, (0, 1, 1): -2}),
        (6, {(2, 2, 0): -10, (1, 1, 1): 12, (0, 0, 2): -2}),
        (7, {(5, 1, 0): -8, (3, 2, 0): 24, (1, 3, 0): 2, (4, 0, 1): 8,
             (2, 1, 1): -32, (1, 0, 2): 8}),
    ],
    3: [
        (3, {(1, 1, 0): 1, (0, 0, 1): -1}),
        (4, {(2, 1, 0): -2, (1, 0, 1): 2}),
        (5, {(3, 1, 0): 2, (1, 2, 0): 1, (2, 0, 1): -2, (0, 1, 1): -1}),
        (6, {(2, 2, 0): -5, (1, 1, 1): 6, (0, 0, 2): -1}),
        (7, {(5, 1, 0): -4, (3, 1, 0): 12, (1, 3, 0): 1, (4, 0, 1): 4,
             (2, 1, 1): -16, (0, 2, 1): -1, (1, 0, 2): 4}),
    ],
}


def _mono_str(exps):
    return poly_text(Poly(chern_vars(len(exps)), {exps: 1}))


def phi_wedge_3_divergences(r, computed_chern_poly, max_deg=7):
    """Structured term-by-term comparison of a computed Phi series (chern
    basis, n=3) with the tabulated one, on degrees up to max_deg.

    Returns (diffs, misprints): diffs maps a chern exponent tuple to
    (computed, tabulated) where the two differ; misprints lists tabulated
    terms sitting in a bracket of the wrong degree.
    """
    diffs, misprints = {}, []
    comp_by_deg = {}
    for e, c in computed_chern_poly.terms.items():
        comp_by_deg.setdefault(chern_weighted_degree(e), {})[e] = c
    for deg, printed in TABULATED_PHI_WEDGE_3[r]:
        if deg > max_deg:
            continue
        printed_clean = {}
        for e, c in printed.items():
            true_deg = chern_weighted_degree(e)
            if true_deg != deg:
                misprints.append((deg, e, c))
                continue
            printed_clean[e] = c
        got = comp_by_deg.get(deg, {})
        for e in sorted(set(printed_clean) | set(got)):
            pc, gc = printed_clean.get(e, 0), got.get(e, 0)
            if pc != gc:
                diffs[e] = (gc, pc)
    return diffs, misprints


def compare_phi_wedge_3(r, computed_chern_poly, max_deg=7):
    """Warning strings for every divergence between the computed Phi series
    and the tabulated one; empty where print and computation agree."""
    diffs, misprints = phi_wedge_3_divergences(r, computed_chern_poly, max_deg)
    warnings = []
    for deg, e, c in misprints:
        warnings.append(
            f"tabulated Phi(wedge,3,{r}) degree-{deg} bracket lists "
            f"{c}{_mono_str(e)}, a degree-{chern_weighted_degree(e)} monomial; "
            f"suspected misprint, excluded from comparison")
    for e, (gc, pc) in sorted(diffs.items()):
        warnings.append(
            f"Phi(wedge,3,{r}) coefficient of {_mono_str(e)}: "
            f"computed {gc}, tabulated {pc}; computed value kept "
            f"(validated by the interpolation route and by exact "
            f"rational-function expansion)")
    return warnings


def euler_number_warnings(values):
    """Warnings for any computed Euler number differing from the tabulated one."""
    out = []
    for idx, printed in TABULATED_EULER.items():
        if idx < len(values) and values[idx] != printed:
            if idx == 10:
                out.append(EULER_E10_WARNING)
            else:
                out.append(f"tabulated E_{idx} = {printed} vs computed {values[idx]}")
    return out

