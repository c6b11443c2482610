"""Local data for the norm equation: Z_p solvability, p-adic densities,
archimedean volumes, and the volume coefficients of the asymptotic formula.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .arith import is_prime, kronecker, sqrt_roots_mod_prime_power

if TYPE_CHECKING:  # pragma: no cover
    from .census import EquationSpec

_MODULUS_BUDGET = 4 * 10**7
_CHUNK = 1 << 21


def _vp(n: int, p: int, cap: int) -> int:
    if n == 0:
        return cap
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _val_table(M: int, p: int, cap: int) -> np.ndarray:
    # v_p(a) for a in [0, M), with v(0) = cap
    v = np.zeros(M, dtype=np.int64)
    step = p
    while step <= M:
        v[::step] += 1
        step *= p
    if M:
        v[0] = cap
    return v


def _square_exists_table(M: int) -> np.ndarray:
    x = np.arange(M, dtype=np.int64)
    sq = (x * x) % M
    return np.bincount(sq, minlength=M) > 0


def locally_solvable(spec: "EquationSpec", p: int) -> bool:
    """Solvability of N(x + y*omega) = m over Z_p.

    p = 2 searches residues mod 2^K, K = v_2(4*d*m) + 3, accepting any
    residue solution whose gradient valuation t satisfies K > 2t (Hensel
    liftable); the depth suffices, since a Z_2 solution always has
    2t <= v_2(4*d*m) + 2.  Odd p use the exact valuation case analysis
    (a mod-p^K scan is hopeless for prime divisors of m near m itself);
    the search routine is kept as a cross-check oracle for small odd p.
    For p not dividing 2*d*m the answer is True without work.
    """
    d, m = spec.d, spec.m
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if (2 * d * m) % p != 0:
        return True
    if p != 2:
        return _solvable_odd(d, m, p)
    return _search_solvable(spec, p)


def _solvable_odd(d: int, m: int, p: int) -> bool:
    # x^2 - d y^2 = m over Z_p; for d = 1 mod 4 substitute u = 2x + y, which
    # is a Z_p bijection and rescales m by the unit 4, changing nothing below
    v = _vp(m, p, 64)
    u = m // p**v
    if d % p != 0:
        if kronecker(d, p) == 1:
            return True
        # inert: norms have even valuation, and units are all represented
        return v % 2 == 0
    # ramified: peeling x -> p x' two steps at a time drops v by 2, leaving
    # x^2 - d y^2 = u (v even, needs x^2 = u mod p) or p x'^2 - (d/p) y^2 = u
    # (v odd, needs y^2 = -u/(d/p) mod p)
    if v % 2 == 0:
        return kronecker(u, p) == 1
    return kronecker(-u * (d // p), p) == 1


def _search_solvable(spec: "EquationSpec", p: int) -> bool:
    d, m = spec.d, spec.m
    K = _vp(4 * d * m, p, 64) + 3
    M = p**K
    if M > _MODULUS_BUDGET:
        raise ValueError(f"modulus p^K = {M} exceeds the search budget")
    if d % 4 == 1 and p == 2:
        return _solvable_2adic_half(spec, K)
    # work with u^2 = A y^2 + B: u = x (d = 2,3 mod 4) or u = 2x + y (d = 1 mod 4)
    if d % 4 == 1:
        A, B = d, 4 * m
    else:
        A, B = d, m
    y = np.arange(M, dtype=np.int64)
    rhs = ((A % M) * ((y * y) % M) + B) % M
    has_root = _square_exists_table(M)[rhs]
    v_rhs = _val_table(M, p, K)[rhs]
    v2 = 1 if p == 2 else 0
    vd = _vp(d, p, K)
    v_y = _val_table(M, p, K)[y % M]
    # gradient through the u-component: v(f_u-ish) = v2 + v(rhs)/2 when rhs != 0
    t_u = np.where(v_rhs < K, v2 + v_rhs // 2, K)
    # gradient through the y-component: v = v2 + v(d) + v(y)
    t_y = v2 + vd + v_y
    t = np.minimum(t_u, t_y)
    return bool(np.any(has_root & (2 * t < K)))


def _solvable_2adic_half(spec: "EquationSpec", K: int) -> bool:
    # d = 1 mod 4 at p = 2: solve (2x+y)^2 = d y^2 + 4m mod 2^(K+2) and check
    # the gradient (f_x, f_y) = (u, (u - d y)/2) at each root u.
    d, m = spec.d, spec.m
    M = 1 << K
    big = 1 << (K + 2)
    for y in range(M):
        rhs = (d * y * y + 4 * m) % big
        for u in sqrt_roots_mod_prime_power(rhs, 2, K + 2):
            t = min(_vp(u, 2, K + 2), max(_vp(u - d * y, 2, K + 2) - 1, 0))
            if 2 * t < K:
                return True
    return False


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
