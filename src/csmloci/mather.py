"""Local Euler obstructions and Chern-Mather classes, skew-symmetric family.

The local Euler obstruction of a skew-symmetric orbit closure is constant on
each smaller orbit, with binomial values; consequently the Chern-Mather class
is the matching binomial combination of orbit CSM classes.  The symmetric
family has no known analogue and is deliberately not offered here.
"""

from __future__ import annotations

from math import comb

from .classes import schur_class
from .interp import closure_schur, w_schur
from .orbits import Family, OrbitId


def euler_obstruction_wedge(n, r):
    """Coefficients of the Euler obstruction of the closure of Sigma_{n,r}
    on the orbits Sigma_{n,r}, Sigma_{n,r+2}, ...: binom(floor(r/2)+k, floor(r/2))."""
    OrbitId(Family.WEDGE, n, r)  # validates range and parity
    half = r // 2
    return [comb(half + k, half) for k in range(0, (n - r) // 2 + 1)]


def chern_mather_wedge(n, r):
    """Chern-Mather class of the closure of Sigma_{n,r} as the Euler
    obstruction combination of orbit CSM classes (exact)."""
    orbit = OrbitId(Family.WEDGE, n, r)
    total = closure_schur(w_schur, orbit, euler_obstruction_wedge(n, r))
    return schur_class("mather", orbit, total, closure=True)
