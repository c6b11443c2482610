"""Residue-scan oracle for localdata.local_density.

scan_density counts the pairs (x, y) mod p^k with N(x + y*omega) = m
directly: a root-count table of x^2 mod p^k looked up once per y, and for
p = 2 with d = 1 mod 4, where the square cannot be completed, every pair.
Its cost is O(p^k) (O(4^k) in the pair case), so tests keep p^k small.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

_CHUNK = 1 << 21


def scan_density(spec, p: int, k: int) -> Fraction:
    """#solutions of N = m mod p^k, divided by p^k, by residue scan."""
    M = p**k
    d, m = spec.d, spec.m
    if d % 4 == 1 and p == 2:
        return Fraction(_pair_count_2adic_half(spec, M), M)
    # chunked so the only full-size buffer is the root-count table
    roots_of = np.zeros(M, dtype=np.int64)
    for lo in range(0, M, _CHUNK):
        x = np.arange(lo, min(lo + _CHUNK, M), dtype=np.int64)
        roots_of += np.bincount((x * x) % M, minlength=M)
    if d % 4 == 1:
        # complete the square: (x + y/2)^2 = (d/4) y^2 + m, p odd
        coef = d * pow(4, -1, M) % M
    else:
        coef = d % M
    count = 0
    for lo in range(0, M, _CHUNK):
        y = np.arange(lo, min(lo + _CHUNK, M), dtype=np.int64)
        a = (coef * ((y * y) % M) + m) % M
        count += int(roots_of[a].sum(dtype=np.int64))
    return Fraction(count, M)


def _pair_count_2adic_half(spec, M: int) -> int:
    d, m = spec.d, spec.m
    c = (1 - d) // 4
    x = np.arange(M, dtype=np.int64)
    count = 0
    chunk = max(1, (1 << 22) // M)
    for y0 in range(0, M, chunk):
        y = np.arange(y0, min(y0 + chunk, M), dtype=np.int64)[:, None]
        f = (x[None, :] * x[None, :] + x[None, :] * y + (c % M) * (y * y) - m) % M
        count += int(np.count_nonzero(f == 0))
    return count
