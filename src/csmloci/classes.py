"""Characteristic-class values in Schur form.

A ClassExpr is a symmetric class as its Schur coefficients, with its orbit
and its truncation degree; emit writes it in the basis a request asks for.
schur_class is the one place a class is cut at its truncation degree: it
drops the Schur terms above it, so nothing downstream cuts again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .orbits import Family
from .poly import _norm
from .schur import schur_to_chern


def add_schur(*dicts, coeffs=None):
    """Linear combination of Schur coefficient dicts."""
    if coeffs is None:
        coeffs = [1] * len(dicts)
    out = {}
    for d, k in zip(dicts, coeffs):
        if k == 0:
            continue
        for lam, c in d.items():
            s = out.get(lam, 0) + k * c
            if s:
                out[lam] = _norm(s)
            elif lam in out:
                del out[lam]
    return out


@dataclass
class ClassExpr:
    """A class value in Schur form: payload is {partition: coeff}, kind a
    free-form label (csm, ssm, phi, w, mather), and trunc None when exact."""

    kind: str
    family: Family
    n: int
    r: int = None
    payload: object = None
    trunc: int = None
    closure: bool = False
    warnings: list = field(default_factory=list)

    def chern_poly(self):
        """The Chern-basis Poly, by vertical Pieri strips (schur.schur_to_chern)."""
        return schur_to_chern(self.payload, self.n)

    def lowest_term(self):
        """(degree, {partition: coeff}) of the minimal-degree Schur slice."""
        if not self.payload:
            return None, {}
        lo = min(map(sum, self.payload))
        return lo, {lam: c for lam, c in self.payload.items() if sum(lam) == lo}


def schur_class(kind, orbit, coeffs, trunc=None, closure=False):
    """The class with these Schur coefficients, less the terms above trunc.
    The keys are taken as given: every Schur dict is built canonical."""
    coeffs = {lam: c for lam, c in coeffs.items() if c and (trunc is None or sum(lam) <= trunc)}
    return ClassExpr(kind, orbit.family, orbit.n, orbit.r, coeffs, trunc, closure)
