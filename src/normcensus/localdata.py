"""Local data for the norm equation: Z_p solvability (one Hilbert symbol),
exact p-adic densities, archimedean volumes, and the volume coefficients of
the asymptotic formula.

A density is a count of solutions mod p^k, taken by a recursion on the
p-adic valuation.  The solutions v = p w reduce to the same count for m/p^2
mod p^(k-2); the primitive ones follow from their count mod p (or mod 2^5
at p = 2 when 2 | D) by Hensel's lemma, because the gradient of the norm
form has bounded valuation on primitive vectors (local_density gives the
cases).  So a density takes O(k) integer steps and no array memory.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .arith import hilbert_symbol, is_prime, kronecker

if TYPE_CHECKING:  # pragma: no cover
    from .census import EquationSpec

_MODULUS_BUDGET = 4 * 10**7


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
    """#solutions of N = m mod p^k, divided by p^k (exact rational).

    With Q = spec.norm_form(), N(m, k) = #{v mod p^k : Q(v) = m mod p^k}
    splits into v = p w and primitive v.  The imprimitive part is
    p^(2(k-1)) [p^k | m] for k <= 2 and p^2 N(m/p^2, k-2) [p^2 | m] beyond,
    since Q(p w) = p^2 Q(w) and each w mod p^(k-2) has p^2 lifts mod p^(k-1).
    The primitive part follows by Hensel lifting.  On a class a + p^(j-t) Z^2
    of primitive vectors, t = v_p(grad Q) is constant, and for j >= 2t + 1,
    Q(a + p^(j-t) h) = Q(a) + p^(j-t) grad Q(a).h mod p^(j+1): Q mod p^j is
    constant on the class, and mod p^(j+1) one linear condition mod p on h
    picks the solutions, so the class holds p times as many solutions
    mod p^(j+1) as mod p^j.
      - p not dividing D (p = 2 with d = 1 mod 4 included): t = 0, so the
        count is p^(k-1) times the count mod p, which is p - chi if p does
        not divide m and (p-1)(1 + chi) if it does, chi = (D/p).
      - odd p | d, e = d/p, on x^2 - d y^2 (for d = 1 mod 4, (2x+y, y) maps
        to it, with 4m for m): if p does not divide m, each y gives the
        1 + (m/p) roots of x^2 = m + d y^2, so p^k (1 + (m/p)); if p | m,
        then x = 0 mod p and y is a unit, so Q has valuation exactly 1 and
        the count is p - 1 at k = 1, 0 if p^2 | m, and else, with m = p m1,
        p^k (1 + (-m1 e/p)) from the roots y of e y^2 = p x1^2 - m1.
      - p = 2 with d = 2, 3 mod 4: a primitive v has t = v_2(grad Q(v)) <= 2
        (2x for x odd, -2dy for y odd, and v_2(d) <= 1), so from j = 5 on
        the count doubles at each step; it is counted over the 1,024 pairs
        mod 2^5 and scaled by 2^(k-5).
    The cost is O(k) steps; p^k is still capped by _MODULUS_BUDGET.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if k < 1:
        raise ValueError("k must be >= 1")
    M = p**k
    if M > _MODULUS_BUDGET:
        raise ValueError(f"modulus p^k = {M} exceeds the scan budget")
    m = spec.m
    count, scale = 0, 1
    while True:
        count += scale * _primitive_count(spec, p, k, m)
        if k <= 2:
            if m % p**k == 0:
                count += scale * p ** (2 * (k - 1))
            return Fraction(count, M)
        if m % (p * p):
            return Fraction(count, M)
        m, k, scale = m // (p * p), k - 2, scale * p * p


def _primitive_count(spec: "EquationSpec", p: int, k: int, m: int) -> int:
    """#{primitive v mod p^k : Q(v) = m mod p^k}, by the cases of local_density."""
    D, d = spec.D, spec.d
    if D % p:
        chi = kronecker(D, p)
        return p ** (k - 1) * ((p - chi) if m % p else (p - 1) * (1 + chi))
    if p == 2:
        j = min(k, 5)
        M = 1 << j
        sq = [x * x % M for x in range(M)]
        hits = sum(
            1
            for x in range(M)
            for y in range(M)
            if (x | y) & 1 and (sq[x] - d * sq[y] - m) % M == 0
        )
        return hits << (k - j)
    if m % p:
        return p**k * (1 + kronecker(m, p))
    if k == 1:
        return p - 1
    if m % (p * p) == 0:
        return 0
    return p**k * (1 + kronecker(-(m // p) * (d // p), p))


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
