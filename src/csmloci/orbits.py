"""Corank orbits of the skew-symmetric and symmetric matrix representations.

GL_n acts on skew-symmetric (Lambda^2 C^n) and symmetric (S^2 C^n) n x n
matrices by A.X = A^T X A; orbits are the loci of fixed corank r.  In the
skew case n - r must be even.  Equivariant classes live in the symmetric
polynomial ring Q[a_1, ..., a_n]^{S_n} on the Chern roots of the tautological
bundle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import comb

from .poly import Poly, product


class Family(str, enum.Enum):
    WEDGE = "wedge"
    SYM = "sym"

    def __str__(self):
        return self.value


def as_family(value):
    if isinstance(value, Family):
        return value
    try:
        return Family(str(value).lower())
    except ValueError:
        raise ValueError(f"unknown family {value!r}; expected 'wedge' or 'sym'") from None


@dataclass(frozen=True)
class OrbitId:
    """An orbit Sigma_{n,r}: corank-r matrices in the chosen family."""

    family: Family
    n: int
    r: int

    def __post_init__(self):
        object.__setattr__(self, "family", as_family(self.family))
        if self.n < 1:
            raise ValueError(f"n must be positive, got n={self.n}")
        if not 0 <= self.r <= self.n:
            raise ValueError(f"corank r={self.r} out of range 0..{self.n}")
        if self.family is Family.WEDGE and (self.n - self.r) % 2 != 0:
            raise ValueError(
                f"parity violation: skew-symmetric corank r={self.r} needs n - r even (n={self.n})")

    def __str__(self):
        tag = "wedge" if self.family is Family.WEDGE else "sym"
        return f"Sigma^{tag}({self.n},{self.r})"


def coranks(family, n):
    """Coranks of the orbits of the n x n representation, increasing."""
    family = as_family(family)
    if family is Family.WEDGE:
        return list(range(n % 2, n + 1, 2))
    return list(range(n + 1))


def orbits(family, n):
    return [OrbitId(family, n, r) for r in coranks(family, n)]


def codim(orbit):
    """Codimension of the orbit in its matrix space."""
    if orbit.family is Family.WEDGE:
        return comb(orbit.r, 2)
    return comb(orbit.r + 1, 2)


def ambient_dim(family, n):
    """Dimension of the matrix space (binom(n,2) resp. binom(n+1,2))."""
    family = as_family(family)
    return comb(n, 2) if family is Family.WEDGE else comb(n + 1, 2)


def alpha_vars(n):
    return tuple(f"a{i}" for i in range(1, n + 1))


def chern_vars(n):
    return tuple(f"c{i}" for i in range(1, n + 1))


def weight_pairs(family, n):
    """Index pairs (i, j), 1-based, of the torus weights a_i + a_j: i < j,
    or i <= j for sym."""
    sym = as_family(family) is Family.SYM
    return [(i, j) for i in range(1, n + 1) for j in range(i if sym else i + 1, n + 1)]


def inside_weights(family, r):
    """(lam, coeff) with the product of the weights a_i + a_j inside
    I = {1..r} equal to coeff s_lam(a_1..a_r): s_(r-1,...,1) for wedge,
    2^r s_(r,...,1) for sym."""
    sym = as_family(family) is Family.SYM
    return tuple(range(r - 1 + sym, 0, -1)), 2 ** r if sym else 1


def weight_factor(variables, const, i, j):
    """const + a_i + a_j, or const + 2 a_i when i = j."""
    if i == j:
        return Poly.linear(variables, const, **{f"a{i}": 2})
    return Poly.linear(variables, const, **{f"a{i}": 1, f"a{j}": 1})


def suborbit_coranks(orbit):
    """Coranks of the orbits in the closure of orbit, increasing."""
    step = 2 if orbit.family is Family.WEDGE else 1
    return range(orbit.r, orbit.n + 1, step)


def total_chern(family, n, bound=None):
    """c(V) = prod (1 + a_i + a_j), optionally truncated by total degree."""
    av = alpha_vars(n)
    return product([weight_factor(av, 1, i, j) for i, j in weight_pairs(family, n)],
                   av, bound=bound)


def euler_class(family, n):
    """e(V) = prod (a_i + a_j) over the weights."""
    av = alpha_vars(n)
    return product([weight_factor(av, 0, i, j) for i, j in weight_pairs(family, n)], av)
