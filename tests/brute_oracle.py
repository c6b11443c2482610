"""Test oracle: the number of solutions of height <= T by a direct scan over y.

For each |y| up to the height bound it solves for x with an exact square
root, so it needs neither the unit nor the class group.  The library counts
by walking unit orbits instead; this scan is the independent check.  It
costs O(T) steps (vectorised with numpy above _NUMPY_CUTOFF rows), which
limits it to T <= _BRUTE_LIMIT.
"""

from __future__ import annotations

import math

import numpy as np

from normcensus.census import EquationSpec

_BRUTE_LIMIT = 10**8
_NUMPY_CUTOFF = 50_000
_CHUNK = 1 << 20


def _x_solutions(spec: EquationSpec, y: int) -> list[int]:
    # integer x with N(x + y*omega) = m, for fixed y
    d, m = spec.d, spec.m
    if d % 4 == 1:
        s2 = d * y * y + 4 * m
        if s2 < 0:
            return []
        t = math.isqrt(s2)
        if t * t != s2 or (t - y) % 2:
            return []
        return sorted({(t - y) // 2, (-t - y) // 2})
    s2 = d * y * y + m
    if s2 < 0:
        return []
    t = math.isqrt(s2)
    if t * t != s2:
        return []
    return sorted({t, -t})


def brute_count(spec: EquationSpec, T: int) -> int:
    """Number of solutions with max(|x|, |y|) <= T, by direct scan."""
    if T < 0:
        raise ValueError("T must be nonnegative")
    if T > _BRUTE_LIMIT:
        raise ValueError(
            f"T={T} exceeds the direct-scan budget ({_BRUTE_LIMIT}); "
            "use SolutionOrbits.count"
        )
    d, m = spec.d, spec.m
    if d % 4 == 1:
        ymax = min(T, math.isqrt(max(0, 9 * T * T - 4 * m) // d))
    else:
        ymax = min(T, math.isqrt(max(0, T * T - m) // d))
    total = sum(1 for x in _x_solutions(spec, 0) if abs(x) <= T)
    if ymax >= 1:
        if ymax <= _NUMPY_CUTOFF:
            for y in range(1, ymax + 1):
                total += 2 * sum(1 for x in _x_solutions(spec, y) if abs(x) <= T)
        else:
            total += 2 * _scan_numpy(spec, T, ymax)
    return total


def _exact_sqrt_mask(rhs):
    # rhs int64 >= 0; returns (is_square, isqrt) elementwise
    t = np.rint(np.sqrt(rhs.astype(np.float64))).astype(np.int64)
    t = np.maximum(t, 0)
    # float rounding can be off by one near perfect squares
    for cand in (t - 1, t, t + 1):
        good = cand >= 0
        hit = good & (cand * cand == rhs)
        t = np.where(hit, cand, t)
    return (t * t == rhs), t


def _scan_numpy(spec: EquationSpec, T: int, ymax: int) -> int:
    d, m = spec.d, spec.m
    if d * ymax * ymax + abs(4 * m) >= 2**62:  # pragma: no cover - desk scale
        return sum(
            sum(1 for x in _x_solutions(spec, y) if abs(x) <= T)
            for y in range(1, ymax + 1)
        )
    total = 0
    half = d % 4 == 1
    for start in range(1, ymax + 1, _CHUNK):
        y = np.arange(start, min(start + _CHUNK, ymax + 1), dtype=np.int64)
        if half:
            rhs = d * y * y + 4 * m
        else:
            rhs = d * y * y + m
        ok = rhs >= 0
        sq, t = _exact_sqrt_mask(np.where(ok, rhs, 0))
        sq &= ok
        if half:
            sq &= (t - y) % 2 == 0
            x1 = (t - y) >> 1
            x2 = (-t - y) >> 1
            total += int(np.sum(sq & (np.abs(x1) <= T)))
            total += int(np.sum(sq & (t > 0) & (np.abs(x2) <= T)))
        else:
            inrange = sq & (t <= T)
            total += int(np.sum(inrange & (t > 0)) * 2 + np.sum(inrange & (t == 0)))
    return total
