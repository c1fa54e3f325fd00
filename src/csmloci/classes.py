"""Tagged characteristic-class values with basis conversions.

A ClassExpr is a symmetric class together with its basis (alpha monomials,
Chern classes c_i, or Schur coefficients), the orbit it belongs to, and an
optional truncation degree (None means the payload is an exact polynomial).

The classes are computed in Schur form, and schur_class is the one place a
class is cut at its truncation degree: it drops the Schur terms above it,
so nothing downstream cuts again.  A class converts only out of the Schur
form: to the Chern basis by vertical Pieri strips (schur.schur_to_chern),
without expanding into the Chern roots, and to the alpha basis, an output
format expanded from the Schur form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .orbits import Family
from .poly import _norm
from .schur import schur_dict_to_alpha, schur_to_chern

ALPHA, CHERN, SCHUR = "alpha", "chern", "schur"


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
    """A class value in a declared basis.

    kind is a free-form label (csm, ssm, phi, w, mather); basis is one of
    alpha, chern, schur.  For basis schur the payload is {partition: coeff},
    otherwise a Poly.  trunc None means exact.
    """

    kind: str
    basis: str
    family: Family
    n: int
    r: int = None
    payload: object = None
    trunc: int = None
    closure: bool = False
    warnings: list = field(default_factory=list)

    # -- conversions ----------------------------------------------------

    def schur_coeffs(self):
        if self.basis != SCHUR:
            raise ValueError(f"a {self.basis} payload is output only; convert from "
                             "the Schur basis")
        return dict(self.payload)

    def alpha_poly(self):
        return schur_dict_to_alpha(self.schur_coeffs(), self.n)

    def chern_poly(self):
        return schur_to_chern(self.schur_coeffs(), self.n)

    def in_basis(self, basis):
        if basis == self.basis:
            return self
        convert = {ALPHA: ClassExpr.alpha_poly, CHERN: ClassExpr.chern_poly,
                   SCHUR: ClassExpr.schur_coeffs}.get(basis)
        if convert is None:
            raise ValueError(f"unknown basis {basis!r}")
        return ClassExpr(self.kind, basis, self.family, self.n, self.r, convert(self),
                         self.trunc, self.closure, list(self.warnings))

    # -- structure ------------------------------------------------------

    def lowest_term(self):
        """(degree, {partition: coeff}) of the minimal-degree Schur slice."""
        d = self.schur_coeffs()
        if not d:
            return None, {}
        lo = min(sum(lam) for lam in d)
        return lo, {lam: c for lam, c in d.items() if sum(lam) == lo}


def schur_class(kind, orbit, coeffs, trunc=None, closure=False):
    """The class with these Schur coefficients, less the terms above trunc.
    The keys are taken as given: every Schur dict is built canonical."""
    coeffs = {lam: c for lam, c in coeffs.items() if c and (trunc is None or sum(lam) <= trunc)}
    return ClassExpr(kind, SCHUR, orbit.family, orbit.n, orbit.r, coeffs, trunc, closure)
