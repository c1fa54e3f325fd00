"""Local Euler obstructions and Chern-Mather classes, skew-symmetric family.

The local Euler obstruction of a skew-symmetric orbit closure is constant on
each smaller orbit, with binomial values; consequently the Chern-Mather class
is the matching binomial combination of orbit CSM classes.  The symmetric
family has no known analogue and is deliberately not offered here.
"""

from __future__ import annotations

from math import comb

from .classes import add_schur, schur_class
from .interp import ssm_interp_schur, w_schur
from .orbits import Family, OrbitId, suborbit_coranks


def euler_obstruction_wedge(n, r):
    """Coefficients of the Euler obstruction of the closure of Sigma_{n,r}
    on the orbits Sigma_{n,r}, Sigma_{n,r+2}, ...: binom(floor(r/2)+k, floor(r/2))."""
    OrbitId(Family.WEDGE, n, r)  # validates range and parity
    half = r // 2
    return [comb(half + k, half) for k in range(0, (n - r) // 2 + 1)]


def chern_mather_wedge(n, r, D=None, kind="csm"):
    """Chern-Mather class of the closure of Sigma_{n,r} as the Euler
    obstruction combination of orbit CSM classes (exact; optionally the
    ssm variant truncated at D)."""
    orbit = OrbitId(Family.WEDGE, n, r)
    if kind == "csm":
        label, part = "mather", w_schur
    elif kind == "ssm":
        if D is None:
            raise ValueError("the ssm variant needs an explicit truncation degree")
        label, part = "mather-ssm", lambda o: ssm_interp_schur(o, D)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    parts = [part(OrbitId(Family.WEDGE, n, m)) for m in suborbit_coranks(orbit)]
    total = add_schur(*parts, coeffs=euler_obstruction_wedge(n, r))
    return schur_class(label, orbit, total, trunc=D if kind == "ssm" else None, closure=True)
