"""Tagged characteristic-class values with basis conversions.

A ClassExpr is a symmetric class together with its basis (alpha monomials,
Chern classes c_i, or Schur coefficients), the orbit it belongs to, and an
optional truncation degree (None means the payload is an exact polynomial).

The classes are computed in Schur form.  Chern and Schur convert into each
other by vertical Pieri strips (schur.chern_to_schur, schur.schur_to_chern),
without expanding into the Chern roots; the alpha basis is an output format
only, expanded from the Schur form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .orbits import Family, OrbitId
from .partitions import partition
from .poly import _norm
from .schur import chern_to_schur, schur_dict_to_alpha, schur_to_chern

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


def truncate_schur(d, bound):
    return {lam: c for lam, c in d.items() if sum(lam) <= bound}


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

    @property
    def orbit(self):
        return None if self.r is None else OrbitId(self.family, self.n, self.r)

    # -- conversions ----------------------------------------------------

    def schur_coeffs(self):
        if self.basis == SCHUR:
            return dict(self.payload)
        if self.basis == ALPHA:
            raise ValueError("an alpha payload is output only; convert from the "
                             "Schur or Chern basis")
        return self._cut(chern_to_schur(self.payload, self.n))

    def alpha_poly(self):
        if self.basis == ALPHA:
            return self.payload
        return schur_dict_to_alpha(self.schur_coeffs(), self.n, max_deg=self.trunc)

    def chern_poly(self):
        if self.basis == CHERN:
            return self.payload
        return schur_to_chern(self._cut(self.schur_coeffs()), self.n)

    def _cut(self, coeffs):
        return coeffs if self.trunc is None else truncate_schur(coeffs, self.trunc)

    def in_basis(self, basis):
        if basis == self.basis:
            return self
        if basis == ALPHA:
            payload = self.alpha_poly()
        elif basis == CHERN:
            payload = self.chern_poly()
        elif basis == SCHUR:
            payload = self.schur_coeffs()
        else:
            raise ValueError(f"unknown basis {basis!r}")
        return ClassExpr(self.kind, basis, self.family, self.n, self.r, payload,
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
    coeffs = {partition(lam): _norm(c) for lam, c in coeffs.items() if c}
    return ClassExpr(kind, SCHUR, orbit.family, orbit.n, orbit.r, coeffs, trunc, closure)
