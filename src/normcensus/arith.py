"""Exact integer primitives: factorization, residue and Hilbert symbols,
square roots modulo prime powers."""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

_TRIAL_LIMIT = 10**6

# Deterministic Miller-Rabin bound for the fixed base set below.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


class InvariantError(ArithmeticError):
    """A computed result broke an identity it must satisfy; unlike an assert,
    the check survives python -O."""


def is_perfect_square(n: int) -> int | None:
    """Integer square root of n if n is a perfect square, else None."""
    if n < 0:
        raise ValueError("is_perfect_square expects n >= 0")
    r = math.isqrt(n)
    return r if r * r == n else None


def _miller_rabin(n: int, base: int) -> bool:
    if base % n == 0:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _lucas_strong_prp(n: int) -> bool:
    # Strong Lucas test, Selfridge parameters.  n odd, > 2, not a square.
    D = 5
    while kronecker(D, n) != -1:
        D = -(D + 2) if D > 0 else -(D - 2)
        if abs(D) > 1000:  # pragma: no cover - squares are filtered earlier
            raise ArithmeticError("no Lucas discriminant found")
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # Compute U_d, V_d by binary ladder.
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = (U + V) * ((n + 1) // 2) % n, (D * U + V) * ((n + 1) // 2) % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_BOUND:
        return all(_miller_rabin(n, b) for b in _MR_BASES)
    # BPSW beyond the deterministic Miller-Rabin range.
    if is_perfect_square(n) is not None:
        return False
    return _miller_rabin(n, 2) and _lucas_strong_prp(n)


def _pollard_brent(n: int) -> int:
    # Brent-cycle Pollard rho; n odd composite with no factor <= _TRIAL_LIMIT.
    # Deterministic: fixed start point, increasing polynomial offset.
    for c in range(1, 1000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"pollard rho failed on {n}")  # pragma: no cover


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    g = _pollard_brent(n)
    _factor_into(g, out)
    _factor_into(n // g, out)


@dataclass(frozen=True)
class Factorization:
    sign: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        v = self.sign
        for p, e in self.factors:
            v *= p**e
        return v

    def exponent_of(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0


def factorize(n: int) -> Factorization:
    """Sign and sorted prime-power factorization; rejects 0."""
    if n == 0:
        raise ValueError("zero has no factorization")
    sign = 1 if n > 0 else -1
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # wheel over 6k +- 1
    f = 7
    step = 4
    while f * f <= n and f <= _TRIAL_LIMIT:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += step
        step = 6 - step
    if n > 1:
        if f * f > n:
            out[n] = out.get(n, 0) + 1
        else:
            _factor_into(n, out)
    return Factorization(sign, tuple(sorted(out.items())))


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), extending Jacobi to all integers."""
    if n == 0:
        return 1 if abs(a) == 1 else 0
    k = 1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        v = (n & -n).bit_length() - 1
        n >>= v
        if v % 2 == 1 and a % 8 in (3, 5):
            k = -k
    a %= n
    while a:
        v = (a & -a).bit_length() - 1
        a >>= v
        if v % 2 == 1 and n % 8 in (3, 5):
            k = -k
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a, n = n % a, a
    return k if n == 1 else 0


def _smallest_nonresidue(p: int) -> int:
    for z in range(2, p):
        if kronecker(z, p) == -1:
            return z
    raise ArithmeticError(f"no non-residue mod {p}")  # pragma: no cover


def _tonelli(a: int, p: int) -> int:
    # Square root of a mod odd prime p; a a quadratic residue unit.
    # Deterministic: seeded by the smallest quadratic non-residue.
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q = p - 1
    s = (q & -q).bit_length() - 1
    q >>= s
    z = pow(_smallest_nonresidue(p), q, p)
    m, c, t, r = s, z, pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _lift_odd(r: int, a: int, p: int, k: int) -> int:
    # Hensel lift r^2 = a (mod p) to mod p^k, p odd.
    pk = p
    for _ in range(k - 1):
        pk *= p
        r = (r - (r * r - a) * pow(2 * r, -1, pk)) % pk
    return r


def _sqrt_unit_mod_2k(u: int, k: int) -> int | None:
    # Square root of odd u mod 2^k, or None.
    if k == 1:
        return 1
    if k == 2:
        return 1 if u % 4 == 1 else None
    if u % 8 != 1:
        return None
    r = 1
    for j in range(3, k):
        if (r * r - u) % (1 << (j + 1)):
            r += 1 << (j - 1)
    return r


def sqrt_mod_prime_power(a: int, p: int, k: int) -> int | None:
    """Least nonnegative r with r^2 = a (mod p^k), or None."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if a % p**k == 0:
        return 0
    roots = sqrt_roots_mod_prime_power(a, p, k)
    return roots[0] if roots else None


def sqrt_roots_mod_prime_power(a: int, p: int, k: int) -> list[int]:
    """All r in [0, p^k) with r^2 = a (mod p^k), sorted.

    For a = p^v * u with v < k and u a unit, every root is p^(v/2) * s with
    s^2 = u (mod p^(k-v)): the unit roots s mod p^(k-v) (two for odd p, up
    to four for p = 2, from Tonelli-Shanks and Hensel lifting) each give
    p^(v/2) roots.  a = 0 (mod p^k) has the p^(k//2) roots p^ceil(k/2) * t.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pk = p**k
    a %= pk
    if a == 0:
        return list(range(0, pk, p ** ((k + 1) // 2)))
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    if v % 2 == 1:
        return []
    j = k - v  # precision of s^2 = u
    mod = p**j
    if p == 2:
        r = _sqrt_unit_mod_2k(a, j)
        if r is None:
            return []
        units = {r % mod, -r % mod}
        if j >= 3:
            units |= {(r + mod // 2) % mod, (-r + mod // 2) % mod}
    else:
        if kronecker(a, p) != 1:
            return []
        r = _lift_odd(_tonelli(a % p, p), a, p, j)
        units = {r, mod - r}
    h = p ** (v // 2)
    return sorted(h * (s + t * mod) for s in units for t in range(h))


def sqrt_roots_mod(a: int, factors: Iterable[tuple[int, int]]) -> list[int]:
    """All r in [0, n) with r^2 = a (mod n), sorted, where n is the product of
    the prime powers p^k in factors: the CRT of the roots mod each p^k."""
    roots, mod = [0], 1
    for p, k in factors:
        pk = p**k
        inv = pow(mod, -1, pk)
        roots = [
            r + mod * ((s - r) * inv % pk)
            for r in roots
            for s in sqrt_roots_mod_prime_power(a, p, k)
        ]
        mod *= pk
    return sorted(roots)


def _valuation(n: int, p: int) -> tuple[int, int]:
    # n = p^v * u with p not dividing u, for n nonzero; returns (v, u).
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _hilbert_int(a: int, b: int, p: int) -> int:
    """(a, b)_p for nonzero integers a, b and a prime p; p is not checked.

    For odd p, with a = p^alpha u and b = p^beta w (u, w prime to p):
        (a,b)_p = (-1/p)^(alpha*beta) * (u/p)^beta * (w/p)^alpha.
    For p = 2 the epsilon/omega formula on the unit parts:
        (a,b)_2 = (-1)^(eps(u)eps(w) + alpha*omega(w) + beta*omega(u))
    where eps(u) = (u-1)/2 mod 2 and omega(u) = (u^2-1)/8 mod 2.
    """
    alpha, u = _valuation(a, p)
    beta, w = _valuation(b, p)
    if p == 2:
        u8, w8 = u % 8, w % 8
        eps_u, eps_w = (u8 - 1) // 2 % 2, (w8 - 1) // 2 % 2
        om_u, om_w = (u8 * u8 - 1) // 8 % 2, (w8 * w8 - 1) // 8 % 2
        return -1 if (eps_u * eps_w + alpha * om_w + beta * om_u) % 2 else 1
    sym = 1
    if alpha * beta % 2 and p % 4 == 3:
        sym = -sym
    if beta % 2:
        sym *= kronecker(u, p)
    if alpha % 2:
        sym *= kronecker(w, p)
    return sym


def hilbert_symbol(a, b, place) -> int:
    """Hilbert symbol (a, b)_v for nonzero rationals a, b and v a prime or
    math.inf (ValueError otherwise).  A fraction n/q is read as the integer
    n*q, which differs from it by the square q^2 (formulas: _hilbert_int)."""
    a, b = Fraction(a), Fraction(b)
    a, b = a.numerator * a.denominator, b.numerator * b.denominator
    if a == 0 or b == 0:
        raise ValueError("hilbert_symbol needs nonzero arguments")
    if place == math.inf:
        return -1 if a < 0 and b < 0 else 1
    p = place
    if not isinstance(p, int) or p < 2 or not is_prime(p):
        raise ValueError(f"invalid place {place!r}")
    return _hilbert_int(a, b, p)
