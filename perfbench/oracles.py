"""Reference computations the benchmark checks normcensus against.

Nothing here imports normcensus.  Each check uses a method other than the
program's own: Lagrange's continued-fraction criterion, Degert's closed-form
units, the analytic class number formula, genus theory, closed-form local
densities, direct residue counts, and a bounded y-scan whose bound comes from
a unit found by brute force.  All of it is pure Python and runs outside the
timed region.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n >= 1."""
    if n <= 0:
        raise ValueError("n must be positive")
    out = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            out = -out
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def prime_factors(n: int) -> dict[int, int]:
    n = abs(n)
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == {n: 1}


def is_squarefree(n: int) -> bool:
    return all(e == 1 for e in prime_factors(n).values())


def discriminant(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


def norm(d: int, x: int, y: int) -> int:
    """N(x + y*omega), omega = sqrt(d) or (1 + sqrt(d))/2."""
    if d % 4 == 1:
        return x * x + x * y + (1 - d) // 4 * y * y
    return x * x - d * y * y


# --- units -------------------------------------------------------------------

def smallest_unit(d: int, v_max: int) -> tuple[int, int, int, int] | None:
    """Fundamental unit (u + v*sqrt(d))/den with the least v > 0, by brute
    force over v <= v_max; None when it is larger.  Returns (u, v, den, norm)."""
    den, targets = (2, (4, -4)) if d % 4 == 1 else (1, (1, -1))
    for v in range(1, v_max + 1):
        for t in targets:
            s = d * v * v + t
            u = math.isqrt(s)
            if u * u == s:
                return (*reduce_unit(u, v, den), 1 if t > 0 else -1)
    return None


def degert_unit(d: int, k: int, r: int) -> tuple[int, int, int, int]:
    """Degert's closed form for d = k^2 + r with r | 4k, d != 5.

    Returns (u, v, den, norm) with eps0 = (u + v*sqrt(d))/den.
    """
    if abs(r) == 1:
        return k, 1, 1, -r
    if abs(r) == 4:
        return k, 1, 2, -r // 4
    u, v, den = 2 * k * k + r, 2 * k, abs(r)
    g = math.gcd(math.gcd(u, v), den)
    return u // g, v // g, den // g, 1


def norm_one_unit_float(u: int, v: int, den: int, n: int, d: int) -> float:
    eps0 = (u + v * math.sqrt(d)) / den
    return eps0 if n == 1 else eps0 * eps0


_QUAD_RE = re.compile(r"^\(?(-?\d+)(?:([+-])(\d+)\*sqrt\((\d+)\))?\)?(/2)?$")


def parse_quad(text: str) -> tuple[int, int, int]:
    """(a, b, den) from normcensus's printed form '(a+b*sqrt(d))/2' or 'a+b*sqrt(d)'."""
    hit = _QUAD_RE.match(text)
    if hit is None:
        raise ValueError(f"unparseable quadratic number {text!r}")
    a = int(hit.group(1))
    b = int(hit.group(3) or 0) * (-1 if hit.group(2) == "-" else 1)
    return a, b, 2 if hit.group(5) else 1


def reduce_unit(a: int, b: int, den: int) -> tuple[int, int, int]:
    # (a + b sqrt d)/2 with a, b even is the integral a/2 + b/2 sqrt(d)
    if den == 2 and a % 2 == 0 and b % 2 == 0:
        return a // 2, b // 2, 1
    return a, b, den


# --- solvability ---------------------------------------------------------------

def log_unit_cf(d: int) -> float:
    """log of the norm-one fundamental unit of Z[sqrt(d)], read off the
    continued fraction of sqrt(d): p_k + q_k sqrt(d) at the first Q_{k+1} = 1."""
    s = math.isqrt(d)
    P, Q, a = 0, 1, s
    p_prev, p, q_prev, q = 1, s, 0, 1
    k = 0
    while True:
        P = a * Q - P
        Q = (d - P * P) // Q
        if Q == 1:
            log_eps0 = math.log(p) + math.log1p(q / p * math.sqrt(d))
            return log_eps0 if k % 2 else 2 * log_eps0
        a = (s + P) // Q
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        k += 1


def lagrange_values(d: int) -> set[int]:
    """Values (-1)^k Q_k over two periods of the continued fraction of sqrt(d)."""
    s = math.isqrt(d)
    P, Q, k = 0, 1, 0
    out = {1}
    while True:
        a = (P + s) // Q
        P = a * Q - P
        Q = (d - P * P) // Q
        k += 1
        out.add((-1) ** k * Q)
        if Q == 1 and k % 2 == 0:
            return out


def lagrange_solvable(d: int, m: int, values: set[int]) -> bool:
    """Lagrange: for |m| < sqrt(d), x^2 - d y^2 = m is solvable iff m/g^2 is a
    value (-1)^k Q_k for some g with g^2 | m."""
    g = 1
    while g * g <= abs(m):
        if m % (g * g) == 0 and m // (g * g) in values:
            return True
        g += 1
    return False


def yscan_solvable(d: int, m: int, eps: float) -> bool:
    """Whether N(x + y*omega) = m has an integral solution, by scanning y.

    Every orbit under a norm-one unit eps has a member whose conjugates are
    both at most sqrt(|m| eps) in size, which bounds |y|; the scan covers
    that range with a margin.  (x, y) -> (x, -y) (or (x + y, -y) when
    d = 1 mod 4) keeps the norm, so y >= 0 suffices.
    """
    half = d % 4 == 1
    span = math.sqrt(abs(m)) * (math.sqrt(eps) + 1.0 / math.sqrt(eps))
    Y = int(span / (math.sqrt(d) if half else 2 * math.sqrt(d))) + 2
    rhs0 = 4 * m if half else m
    for y in range(Y + 1):
        s = d * y * y + rhs0
        if s < 0:
            continue
        u = math.isqrt(s)
        if u * u == s and (not half or (u - y) % 2 == 0):
            return True
    return False


# --- class numbers -----------------------------------------------------------

def _exp1(x: float) -> float:
    """Exponential integral E1(x) for x > 0."""
    if x <= 1.0:
        total = -0.5772156649015329 - math.log(x)
        term = 1.0
        k = 1
        while True:
            term *= -x / k
            step = -term / k
            total += step
            if abs(step) < 1e-17 * abs(total):
                return total
            k += 1
    b = x + 1.0
    c = 1e300
    dd = 1.0 / b
    h = dd
    i = 1
    while True:
        an = -i * i
        b += 2.0
        dd = 1.0 / (an * dd + b)
        c = b + an / c
        step = c * dd
        h *= step
        if abs(step - 1.0) < 1e-16:
            return h * math.exp(-x)
        i += 1


def hplus_log_eps(D: int) -> float:
    """h+ * log(eps) = sqrt(D) * L(1, chi_D), eps the norm-one fundamental unit.

    Uses the rapidly converging series (Cohen, GTM 138, Prop. 5.6.11)
    2 h R = sum chi(n) (sqrt(D) erfc(n sqrt(pi/D)) / n + E1(pi n^2 / D)),
    together with h+ log eps = 2 h R in both sign cases of N(eps0).
    """
    rD = math.sqrt(D)
    c = math.sqrt(math.pi / D)
    total = 0.0
    for n in range(1, int(7 * rD) + 2):
        chi = kronecker(D, n)
        if chi:
            total += chi * (rD * math.erfc(n * c) / n + _exp1(math.pi * n * n / D))
    return total


def two_rank(D: int) -> int:
    """Genus theory: the narrow class group has 2-rank t - 1, t = #primes | D."""
    return len(prime_factors(D)) - 1


# --- local densities ---------------------------------------------------------

def vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def closed_form_density(d: int, m: int, p: int, k: int) -> Fraction | None:
    """#{N(z) = m mod p^k} / p^k for p not dividing D and v_p(m) < k.

    The norm form is hyperbolic at a split p and anisotropic at an inert p.
    """
    D = discriminant(d)
    v = vp(m, p)
    if D % p == 0 or v >= k:
        return None
    if kronecker(D, p) == 1:
        return (v + 1) * Fraction(p - 1, p)
    return Fraction(p + 1, p) if v % 2 == 0 else Fraction(0)


def direct_density(d: int, m: int, p: int, k: int) -> Fraction:
    """Count (x, y) mod p^k with N(x + y*omega) = m by residue tables.

    Not for p = 2 with d = 1 mod 4, where 2 does not divide D and the closed
    form applies.
    """
    if d % 4 == 1 and p == 2:
        raise ValueError("use closed_form_density at p = 2 for d = 1 mod 4")
    M = p**k
    roots = [0] * M
    for x in range(M):
        roots[x * x % M] += 1
    if d % 4 == 1:
        # (2x + y)^2 = d y^2 + 4m, and x -> 2x + y is a bijection for odd p
        hits = sum(roots[(d * y * y + 4 * m) % M] for y in range(M))
    else:
        hits = sum(roots[(d * y * y + m) % M] for y in range(M))
    return Fraction(hits, M)
