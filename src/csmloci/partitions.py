"""Integer partitions as canonical weakly-decreasing tuples."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .poly import exact_int


def partition(parts):
    """Canonicalize to a weakly decreasing tuple of positive parts.

    Trailing zeros are stripped; an increasing pair is an error.
    """
    parts = tuple(int(p) for p in parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    for a, b in zip(parts, parts[1:]):
        if b > a:
            raise ValueError(f"not weakly decreasing: {parts}")
    if parts and parts[-1] < 0:
        raise ValueError(f"negative part in {parts}")
    return parts


def conjugate(lam):
    if not lam:
        return ()
    out = [0] * lam[0]
    for p in lam:
        for i in range(p):
            out[i] += 1
    return tuple(out)


def staircase(r):
    """(r-1, r-2, ..., 1); the empty partition for r <= 1."""
    return tuple(range(r - 1, 0, -1))


@lru_cache(maxsize=None)
def count_ssyt(lam, n):
    """Number of semistandard Young tableaux of shape lam with entries <= n,
    i.e. the Schur polynomial evaluated at n ones (hook content formula)."""
    if len(lam) > n:
        return 0
    if not lam:
        return 1
    conj = conjugate(lam)
    contents = hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            contents *= n + j - i
            hooks *= (row - j) + (conj[j] - i) - 1
    return exact_int(Fraction(contents, hooks), f"SSYT count of {lam}")
