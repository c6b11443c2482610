"""Exact arithmetic in the maximal order of a real quadratic field Q(sqrt(d))."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import InvariantError, factorize


@dataclass(frozen=True)
class QuadElem:
    """(a + b*sqrt(d)) / denom with denom in {1, 2}.

    denom = 2 only occurs for d = 1 (mod 4), with a = b (mod 2), so that the
    element lies in the maximal order Z[(1 + sqrt(d))/2].
    """

    a: int
    b: int
    denom: int
    d: int

    @staticmethod
    def make(a: int, b: int, d: int, denom: int = 1) -> "QuadElem":
        if denom == 2:
            if a % 2 == 0 and b % 2 == 0:
                return QuadElem(a // 2, b // 2, 1, d)
            if d % 4 != 1 or (a - b) % 2 != 0:
                raise ValueError("half-integer coordinates need d=1 mod 4, a=b mod 2")
        elif denom != 1:
            raise ValueError("denom must be 1 or 2")
        return QuadElem(a, b, denom, d)

    @staticmethod
    def from_coords(d: int, x: int, y: int) -> "QuadElem":
        """Element x + y*omega, omega = sqrt(d) or (1+sqrt(d))/2 as d demands."""
        if d % 4 == 1:
            return QuadElem.make(2 * x + y, y, d, 2)
        return QuadElem(x, y, 1, d)

    def coords(self) -> tuple[int, int]:
        if self.d % 4 == 1:
            if self.denom == 2:
                return (self.a - self.b) // 2, self.b
            return self.a - self.b, 2 * self.b
        if self.denom != 1:  # pragma: no cover - excluded by make()
            raise ValueError("non-integral element")
        return self.a, self.b

    def height(self) -> int:
        x, y = self.coords()
        return max(abs(x), abs(y))

    def _same_field(self, other: "QuadElem") -> None:
        if self.d != other.d:
            raise ValueError("mixed fields")

    def __add__(self, other: "QuadElem") -> "QuadElem":
        self._same_field(other)
        if self.denom == other.denom:
            return QuadElem.make(self.a + other.a, self.b + other.b, self.d, self.denom)
        s, o = (self, other) if self.denom == 2 else (other, self)
        return QuadElem.make(s.a + 2 * o.a, s.b + 2 * o.b, self.d, 2)

    def __neg__(self) -> "QuadElem":
        return QuadElem(-self.a, -self.b, self.denom, self.d)

    def __sub__(self, other: "QuadElem") -> "QuadElem":
        return self + (-other)

    def __mul__(self, other: "QuadElem") -> "QuadElem":
        self._same_field(other)
        a = self.a * other.a + self.d * self.b * other.b
        b = self.a * other.b + self.b * other.a
        den = self.denom * other.denom
        if den == 4:
            # product of two order elements: both components come out even
            a, b, den = a // 2, b // 2, 2
        return QuadElem.make(a, b, self.d, den)

    def __pow__(self, k: int) -> "QuadElem":
        if k < 0:
            return self.unit_inverse() ** (-k)
        result = QuadElem(1, 0, 1, self.d)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conj(self) -> "QuadElem":
        return QuadElem(self.a, -self.b, self.denom, self.d)

    def norm(self) -> int | Fraction:
        n = Fraction(self.a * self.a - self.d * self.b * self.b, self.denom**2)
        return int(n) if n.denominator == 1 else n

    def trace(self) -> int | Fraction:
        t = Fraction(2 * self.a, self.denom)
        return int(t) if t.denominator == 1 else t

    def unit_inverse(self) -> "QuadElem":
        n = self.norm()
        if n == 1:
            return self.conj()
        if n == -1:
            return -self.conj()
        raise ValueError("inverse only for units")

    def is_one(self) -> bool:
        return self.b == 0 and self.a == self.denom

    def scale(self, c: int) -> "QuadElem":
        return QuadElem.make(c * self.a, c * self.b, self.d, self.denom)

    def sign_embed1(self) -> int:
        """Exact sign of the real embedding sending sqrt(d) to +sqrt(d)."""
        a, b = self.a, self.b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        big_a = a * a > self.d * b * b
        if a > 0:
            return 1 if big_a else -1
        return -1 if big_a else 1

    def embed(self) -> tuple[float, float]:
        rt = math.sqrt(self.d)
        return ((self.a + self.b * rt) / self.denom, (self.a - self.b * rt) / self.denom)

    def __str__(self) -> str:
        core = f"{self.a}"
        if self.b:
            core += f"{'+' if self.b > 0 else '-'}{abs(self.b)}*sqrt({self.d})"
        return f"({core})/2" if self.denom == 2 else core


def _log_embed1(z: QuadElem) -> float:
    """log of the (positive) first embedding, safe for huge coordinates."""
    a, b, den, d = z.a, z.b, z.denom, z.d
    try:
        val = (a + b * math.sqrt(d)) / den
        if 0 < val < math.inf:
            return math.log(val)
    except OverflowError:
        pass
    # scale down by a power of two
    shift = max(abs(a).bit_length(), abs(b).bit_length()) - 500
    return math.log((a >> shift) + (b >> shift) * math.sqrt(d)) - math.log(den) + shift * math.log(2)


@dataclass(frozen=True)
class FieldData:
    d: int
    D: int
    eps0: QuadElem
    norm_eps0: int
    eps: QuadElem
    log_eps: float
    primes: tuple[int, ...]  # the primes dividing d

    def omega(self) -> QuadElem:
        if self.d % 4 == 1:
            return QuadElem(1, 1, 2, self.d)
        return QuadElem(0, 1, 1, self.d)


def _cf_fundamental_unit(d: int) -> QuadElem:
    # Continued-fraction expansion of omega; the first convergent p/q with
    # |N(p - q*conj(omega))| = 1 is the fundamental unit.  omega and all its
    # tails have conjugate < 1, so every Q in the recurrence stays positive
    # and floor((P + sqrt(d))/Q) = (P + isqrt(d)) // Q exactly.
    s = math.isqrt(d)
    P, Q = (1, 2) if d % 4 == 1 else (0, 1)
    p_prev, p_cur = 0, 1
    q_prev, q_cur = 1, 0
    for _ in range(10**6):
        if Q <= 0:
            raise InvariantError(f"continued fraction of omega reached Q = {Q} for d={d}")
        a = (P + s) // Q
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        if d % 4 == 1:
            # p - q*(1 - sqrt(d))/2 = ((2p - q) + q sqrt(d))/2
            cand = QuadElem.make(2 * p_cur - q_cur, q_cur, d, 2)
        else:
            cand = QuadElem(p_cur, q_cur, 1, d)
        if abs(cand.norm()) == 1:
            return cand
        P = a * Q - P
        Q = (d - P * P) // Q
    raise ArithmeticError(f"fundamental unit search did not terminate for d={d}")


@lru_cache(maxsize=None)
def field_data(d: int) -> FieldData:
    """Invariants of Q(sqrt(d)): discriminant, fundamental unit, norm-one unit."""
    if d < 2:
        raise ValueError("d must be an integer >= 2")
    d_fact = factorize(d)
    if any(e > 1 for _, e in d_fact.factors):
        raise ValueError(f"d={d} is not squarefree")
    D = d if d % 4 == 1 else 4 * d
    eps0 = _cf_fundamental_unit(d)
    n0 = eps0.norm()
    if n0 not in (1, -1):
        raise InvariantError(f"fundamental unit {eps0} has norm {n0} for d={d}")
    eps = eps0 if n0 == 1 else eps0 * eps0
    if eps.norm() != 1:
        raise InvariantError(f"norm-one unit {eps} has norm {eps.norm()} for d={d}")
    if not (eps * eps.conj()).is_one():
        raise InvariantError(f"eps * conj(eps) != 1 for eps = {eps}, d={d}")
    if not (eps0.sign_embed1() > 0 and (eps0 - QuadElem(1, 0, 1, d)).sign_embed1() > 0):
        raise InvariantError(f"fundamental unit {eps0} is not > 1 for d={d}")
    primes = tuple(p for p, _ in d_fact.factors)
    return FieldData(d, D, eps0, int(n0), eps, _log_embed1(eps), primes)
