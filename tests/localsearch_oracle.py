"""Test oracle: Z_p solvability of N(x + y*omega) = m by a residue search.

The search looks at every residue y mod p^K, K = v_p(4*d*m) + 3, and
accepts a residue solution whose gradient valuation t satisfies K > 2t
(Hensel liftable); the depth suffices, since a Z_p solution always has
2t <= v_p(4*d*m) + 2.  The library decides the same question with one
Hilbert symbol; this search uses no symbol at all, so the two can be
compared.  It costs O(p^K) time and memory, which limits it to small
moduli.
"""

from __future__ import annotations

import numpy as np

from normcensus.arith import sqrt_roots_mod_prime_power
from normcensus.census import EquationSpec

_MODULUS_BUDGET = 4 * 10**7


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


def _search_solvable(spec: EquationSpec, p: int) -> bool:
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


def _solvable_2adic_half(spec: EquationSpec, K: int) -> bool:
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
