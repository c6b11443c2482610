"""Local data for the norm equation: Z_p solvability (one Hilbert symbol),
p-adic densities by residue counts, archimedean volumes, and the volume
coefficients of the asymptotic formula.

numpy is imported by the density scans only, so the solve, census and count
paths never load it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .arith import hilbert_symbol, is_prime

if TYPE_CHECKING:  # pragma: no cover
    from .census import EquationSpec

_MODULUS_BUDGET = 4 * 10**7
_CHUNK = 1 << 21


def locally_solvable(spec: "EquationSpec", p: int) -> bool:
    """Solvability of N(x + y*omega) = m over Z_p: the Hilbert symbol (d, m)_p = 1.

    Over Z_p is the same as over Q_p.  When p does not split, Q_p(sqrt(d))
    is a local field, in which an element of integral norm is integral, so
    it lies in the p-adic completion of the maximal order; when p splits,
    that completion is Z_p x Z_p and the norm (a, b) -> ab maps it onto
    Z_p.  So m is a local norm exactly when (d, m)_p = 1 (Serre, A Course
    in Arithmetic, ch. III).  For d = 1 mod 4 the equation reads
    (2x + y)^2 - d y^2 = 4m, and the square 4 leaves the symbol unchanged.
    A p that is not prime raises ValueError.
    """
    return hilbert_symbol(spec.d, spec.m, p) == 1


def local_density(spec: "EquationSpec", p: int, k: int) -> Fraction:
    """#solutions of N = m mod p^k, divided by p^k (exact rational)."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if k < 1:
        raise ValueError("k must be >= 1")
    M = p**k
    if M > _MODULUS_BUDGET:
        raise ValueError(f"modulus p^k = {M} exceeds the scan budget")
    d, m = spec.d, spec.m
    if d % 4 == 1 and p == 2:
        count = _pair_count_2adic_half(spec, M)
        return Fraction(count, M)
    import numpy as np

    # chunked so the only full-size buffer is the root-count table
    roots_of = np.zeros(M, dtype=np.int32)
    for lo in range(0, M, _CHUNK):
        x = np.arange(lo, min(lo + _CHUNK, M), dtype=np.int64)
        np.add.at(roots_of, (x * x) % M, 1)
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


def _pair_count_2adic_half(spec: "EquationSpec", M: int) -> int:
    import numpy as np

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


def lemvol_coefficient(n: int, r: int, s: int, abs_norm_delta) -> float:
    """Leading volume coefficient for a degree-n field at one archimedean place.

    Three cases: a real place with r >= 1 real and s complex places above it
    (r + 2s = n); a real place with all places above complex (2s = n); a
    complex place (s = n places above, all complex).
    """
    if n < 1 or r < 0 or s < 0:
        raise ValueError("invalid signature")
    if r >= 1 and r + 2 * s == n:
        num = 2 ** (r - 1) * (2 * math.pi) ** s * n ** (r + s - 1)
        return num / (math.factorial(r + s - 1) * abs_norm_delta)
    if r == 0 and s >= 1 and 2 * s == n:
        num = (2 * math.pi) ** (s - 1) * n ** (s - 1)
        return num / (math.factorial(s - 1) * abs_norm_delta)
    if r == 0 and s == n:
        num = (2 * math.pi) ** (n - 1) * n ** (n - 1)
        return num / (math.factorial(n - 1) * abs_norm_delta)
    raise ValueError(f"(n, r, s) = ({n}, {r}, {s}) matches no archimedean case")


def arch_volume_hyperbola(spec: "EquationSpec", T: float) -> float:
    """Volume of the height-T piece of the real hyperbola N(z) = m.

    In conjugate coordinates (z1, z2) with z1 z2 = m, the region |z1| <= T,
    |z2| <= T cuts each of the two branches in the |z2| interval
    [|m|/T, T]; the measure is |N(Delta)|^(-1) d(log|z2|) with
    |N(Delta)| = D.  Grows like (4/D) log T.
    """
    am = abs(spec.m)
    if T <= 0:
        raise ValueError("T must be positive")
    if T * T <= am:
        return 0.0
    return 2.0 / spec.D * math.log(T * T / am)
