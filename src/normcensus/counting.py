"""Unit orbits of the solutions of N(z) = m: exact counts and the staircase
slope they give.

Solutions of N(z) = m fall into finitely many orbits under multiplication by
the norm-one fundamental unit eps (signs give separate orbits).  The orbit
representative is normalized into the window sqrt(|m|/eps) < |sigma_1(z)| <=
sqrt(|m|*eps), which contains exactly one member of each orbit.

The representatives come from reduced ideal forms: each ideal of norm |m|
is a form (n, b, *) with n = m/g^2, and reducing that form while tracking
the SL2(Z) transform either reaches the principal form, which yields a
solution, or shows the ideal's class is not the target.  This costs time
polynomial in log|m| plus the cycle length, O(log eps); a scan over y would
take O(sqrt(|m| eps / d)) steps (tests/yscan_oracle.py keeps it as a check).
SolutionOrbits.count walks each orbit through the height box and counts the
solutions exactly for any T >= 0; the direct scan over y that it replaced is
tests/brute_oracle.py.  SolutionOrbits.slope is the exact coefficient of
log T; census.verdict compares it with the slope that c_m predicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .arith import InvariantError, sqrt_roots_mod
from .classgroup import Form, principal_representation
from .quadfield import QuadElem

if TYPE_CHECKING:  # pragma: no cover
    from .census import EquationSpec


@dataclass(frozen=True)
class SolutionOrbits:
    spec: "EquationSpec"
    representatives: tuple[QuadElem, ...]
    orbit_count: int

    def count(self, T: int) -> int:
        """Number of solutions with max(|x|, |y|) <= T, by walking each orbit.

        Works for astronomically large T (exact big-integer arithmetic only).
        """
        if T < 0:
            raise ValueError("T must be nonnegative")
        spec = self.spec
        d, m = spec.d, spec.m
        eps = spec.field.eps
        eps_inv = eps.conj()
        # |sigma_1| cutoff beyond which max(|x|,|y|) > T is guaranteed:
        # |z1| <= (1 + sqrt(d)) * T + sqrt(|m| eps) for any solution in the box
        s = math.isqrt(d)
        B = 3 * (s + 1) * max(T, 1) + math.isqrt(int(abs(m) * _eps_upper(spec))) + 2
        m2 = m * m
        total = 0
        for rep in self.representatives:
            z = rep
            while z.abs1_leq(B):
                if z.height() <= T:
                    total += 1
                z = z * eps
            z = rep * eps_inv
            # walk down while |sigma_2(z)| <= B, i.e. |sigma_1| >= |m| / B
            while ((z * z).scale(B * B) - QuadElem(m2, 0, 1, d)).sign_embed1() >= 0:
                if z.height() <= T:
                    total += 1
                z = z * eps_inv
        return total

    @property
    def slope(self) -> float:
        """Exact staircase slope 2 * orbit_count / log(eps)."""
        return 2 * self.orbit_count / self.spec.field.log_eps


def _eps_upper(spec: "EquationSpec") -> Fraction:
    # rational upper bound on eps = (a + b sqrt(d))/denom
    eps = spec.field.eps
    s = math.isqrt(spec.d)
    return Fraction(eps.a + eps.b * (s + 1), eps.denom)


def _window_reduce(z: QuadElem, spec: "EquationSpec") -> QuadElem:
    """Unique orbit member with sqrt(|m|/eps) < |sigma_1| <= sqrt(|m|*eps)."""
    eps = spec.field.eps
    eps_inv = eps.conj()  # norm one
    am = abs(spec.m)
    one = QuadElem(1, 0, 1, spec.d)
    while True:
        sq = z * z
        # |sigma_1|^2 > |m| * eps ?
        if (sq - eps.scale(am)).sign_embed1() > 0:
            z = z * eps_inv
            continue
        # |sigma_1|^2 <= |m| / eps ?
        if (sq * eps - one.scale(am)).sign_embed1() <= 0:
            z = z * eps
            continue
        return z


def _square_splits(factors: tuple[tuple[int, int], ...]) -> list[tuple[int, list[tuple[int, int]]]]:
    # (g, prime powers of |m|/g^2) for every g >= 1 with g^2 | m
    out: list[tuple[int, list[tuple[int, int]]]] = [(1, [])]
    for p, e in factors:
        out = [
            (g * p**k, rest + [(p, e - 2 * k)] if e > 2 * k else rest)
            for g, rest in out
            for k in range(e // 2 + 1)
        ]
    return out


def fundamental_solutions(spec: "EquationSpec") -> SolutionOrbits:
    """One canonical representative per eps-orbit of solutions.

    A solution is g*(x, y) with g^2 | m and (x, y) a primitive representation
    of n = m/g^2 by the norm form f0.  Completing (x, y) to a matrix S in
    SL2(Z) gives f0 o S = (n, b, *) with b mod 2|n| fixed by (x, y) and
    b^2 = D (mod 4|n|); the representations sharing one b are one orbit of
    the proper automorphs +-eps^k of f0.  So each b whose form (n, b, *) is
    properly equivalent to f0 gives the two orbits of (x, y) and -(x, y),
    and the form's reduction cycle yields (x, y).
    """
    d, m, D = spec.d, spec.m, spec.D
    reps: set[QuadElem] = set()
    for g, rest in _square_splits(spec.m_fact.factors):
        n = m // (g * g)
        four_n = [(2, dict(rest).get(2, 0) + 2)] + [(p, e) for p, e in rest if p != 2]
        for b in sqrt_roots_mod(D, four_n):
            if b >= 2 * abs(n):
                break
            form = Form(n, b, (b * b - D) // (4 * n))
            if not form.is_primitive():
                continue
            xy = principal_representation(form)
            if xy is None:
                continue
            x, y = g * xy[0], g * xy[1]
            if spec.evaluate(x, y) != m:
                raise InvariantError(f"N({x} + {y}*omega) != {m} for d={d}")
            z = QuadElem.from_coords(d, x, y)
            reps.add(_window_reduce(z, spec))
            reps.add(_window_reduce(-z, spec))
    ordered = tuple(sorted(reps, key=lambda z: (z.a, z.b, z.denom)))
    return SolutionOrbits(spec, ordered, len(ordered))
