"""Test oracle: the solvability number c_m as a character sum in Z[zeta_n].

The library counts ideals per narrow class; this module evaluates the
character-sum form of the criterion instead, with exact cyclotomic
arithmetic, so the two can be compared.  Characters are built on
coordinates in the generators that NarrowClassGroup.decomposition records;
those generators need not form a basis, and coords() raises when they do
not, so an oracle built on a bad basis fails loudly instead of agreeing by
accident.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from normcensus.arith import kronecker
from normcensus.census import EquationSpec
from normcensus.classgroup import NarrowClassGroup, class_group, frobenius_class, sign_class


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # den monic; exact division over Z
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        coef = num[i + len(den) - 1]
        out[i] = coef
        for j, c in enumerate(den):
            num[i + j] -= coef * c
    while num and num[-1] == 0:
        num.pop()
    return out, num


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first."""
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_poly(d)))
            assert not rem
    return tuple(num)


@dataclass(frozen=True)
class CycInt:
    """Integer combination of n-th roots of unity: sum coeffs[i] * zeta^i.

    Carried in the group ring Z[x]/(x^n - 1) (cyclic convolution);
    rationality is decided by reducing modulo the n-th cyclotomic polynomial.
    """

    n: int
    coeffs: tuple[int, ...]

    @staticmethod
    def zero(n: int) -> "CycInt":
        return CycInt(n, (0,) * n)

    @staticmethod
    def integer(n: int, c: int) -> "CycInt":
        return CycInt(n, (c,) + (0,) * (n - 1))

    @staticmethod
    def root(n: int, k: int) -> "CycInt":
        v = [0] * n
        v[k % n] = 1
        return CycInt(n, tuple(v))

    def _chk(self, other: "CycInt") -> None:
        if self.n != other.n:
            raise ValueError("mixed cyclotomic orders")

    def __add__(self, other: "CycInt") -> "CycInt":
        self._chk(other)
        return CycInt(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycInt") -> "CycInt":
        self._chk(other)
        return CycInt(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "CycInt") -> "CycInt":
        self._chk(other)
        out = [0] * self.n
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % self.n] += a * b
        return CycInt(self.n, tuple(out))

    def conj(self) -> "CycInt":
        """Galois conjugate zeta -> zeta^(-1)."""
        return CycInt(self.n, tuple(self.coeffs[-i % self.n] for i in range(self.n)))

    def _reduced(self) -> list[int]:
        phi = list(cyclotomic_poly(self.n))
        rem = list(self.coeffs)
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) >= len(phi):
            _, rem = _poly_divmod(rem, phi)
        return rem

    def as_int(self) -> int | None:
        """The value as a rational integer, or None if irrational."""
        rem = self._reduced()
        if len(rem) > 1:
            return None
        return rem[0] if rem else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycInt):
            return NotImplemented
        if self.n != other.n:
            return False
        diff = (self - other)._reduced()
        return not diff

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash((self.n, tuple(self._reduced())))


def coords(G: NarrowClassGroup) -> tuple[tuple[int, ...], ...]:
    """Exponents of every class in the recorded generators (class index ->
    tuple); raises ArithmeticError when the generators are not a basis."""
    out: list[tuple[int, ...] | None] = [None] * G.h_plus
    for tup in product(*(range(o) for _, o in G.decomposition)):
        x = G.identity
        for (g, _), e in zip(G.decomposition, tup):
            for _ in range(e):
                x = G.table[x][g]
        if out[x] is not None:
            raise ArithmeticError("generator decomposition is not direct")
        out[x] = tup
    assert all(c is not None for c in out)
    return tuple(out)


@dataclass(frozen=True)
class Character:
    """Character of the narrow class group, as an exponent map into Z/n."""

    group: NarrowClassGroup
    labels: tuple[int, ...]  # one exponent per generator
    coords: tuple[tuple[int, ...], ...]

    def exponent(self, class_index: int) -> int:
        n = self.group.exponent
        tup = self.coords[class_index]
        total = 0
        for (_, order), lab, k in zip(self.group.decomposition, self.labels, tup):
            total += lab * k * (n // order)
        return total % n

    def value(self, class_index: int) -> CycInt:
        return CycInt.root(self.group.exponent, self.exponent(class_index))

    def value_order(self) -> int:
        orders = [
            order // math.gcd(order, lab)
            for (_, order), lab in zip(self.group.decomposition, self.labels)
        ]
        return math.lcm(*orders) if orders else 1

    def is_trivial(self) -> bool:
        return all(lab == 0 for lab in self.labels)


def characters(G: NarrowClassGroup) -> list[Character]:
    """All h characters of G."""
    c = coords(G)
    return [Character(G, tup, c) for tup in product(*(range(o) for _, o in G.decomposition))]


def delta_p(n: int, zeta_exp: int, e: int) -> CycInt:
    """Local character factor sum_{j=0}^{e} zeta^(2j - e), zeta = zeta_n^zeta_exp."""
    out = CycInt.zero(n)
    for j in range(e + 1):
        out = out + CycInt.root(n, zeta_exp * (2 * j - e))
    return out


def c_m_charsum(spec: EquationSpec) -> int:
    """c_m as the sum over all characters chi of chi(sign^s) times
    chi(frob_p)^e for ramified p^e and delta_p for split p^e."""
    G = class_group(spec.D)
    n = G.exponent
    sgn_idx = sign_class(G) if spec.m < 0 else G.identity
    local_parts: list[tuple[int, int]] = []  # (class index, exponent) for ramified
    split_parts: list[tuple[int, int]] = []  # (class index, e) for split
    for p, e in spec.m_fact.factors:
        if spec.D % p == 0:
            local_parts.append((frobenius_class(G, p), e))
        elif kronecker(spec.D, p) == 1:
            split_parts.append((frobenius_class(G, p), e))
        # inert primes do not enter the sum
    total = CycInt.zero(n)
    for chi in characters(G):
        term = chi.value(sgn_idx)
        for idx, t in local_parts:
            term = term * CycInt.root(n, chi.exponent(idx) * t)
        for idx, e in split_parts:
            term = term * delta_p(n, chi.exponent(idx), e)
        total = total + term
    val = total.as_int()
    if val is None or val < 0:
        raise ArithmeticError(f"character sum is not a nonnegative integer: {total}")
    return val
