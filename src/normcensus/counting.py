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
SolutionOrbits.count is exact for any T >= 0, by binary lifting over eps^(2^j)
(tests/walk_oracle.py keeps the step-by-step walk it replaced as a check).
The window is symmetric under z -> -z, which keeps heights, so the orbits
come in pairs +-z with equal counts: count walks one of each and doubles it.
SolutionOrbits.slope is the exact coefficient of log T; census.verdict
compares it with the slope that c_m predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        """Number of solutions with max(|x|, |y|) <= T, for any T >= 0.

        Along an orbit, x and y of z * eps^k are each A e^t + B e^-t with
        t = k log(eps): convex, monotone or with one sign change, so |x|, |y|
        and their max, the height, are strictly quasi-convex in t.  Hence the
        k with height <= T form one interval, and the height strictly drops
        before its minimum.  Each orbit steps by eps^(+-1) from its window
        representative while the exact height drops; then, each way, it
        squares eps^(2^j) until a product's height exceeds T and binary-lifts
        back down that ladder.  Only integer heights are compared, and an
        orbit costs O(log(log T / log eps)) products.

        -z * eps^k has the height of z * eps^k, so a representative whose
        negation is also listed is counted for both; any other counts once.
        """
        if T < 0:
            raise ValueError("T must be nonnegative")
        eps = self.spec.field.eps
        ladders = ([eps], [eps.conj()])  # eps^(2^j) and eps^(-2^j), grown on demand
        total = 0
        pending = set(self.representatives)
        for rep in self.representatives:
            if rep not in pending:
                continue  # the mirror of an orbit already counted
            pending.discard(rep)
            weight = 2 if -rep in pending else 1
            pending.discard(-rep)
            z, h = rep, rep.height()
            for ladder in ladders:
                w = z * ladder[0]
                while (hw := w.height()) < h:
                    z, h, w = w, hw, w * ladder[0]
            if h > T:
                continue
            total += weight
            for ladder in ladders:
                # height(z * eps^(+-n)) never falls as n grows: n ends as the
                # largest n at which it is <= T
                cur, n, j = z, 0, 0
                while True:
                    if j == len(ladder):
                        ladder.append(ladder[-1] * ladder[-1])
                    w = z * ladder[j]
                    if w.height() > T:
                        break
                    cur, n, j = w, 1 << j, j + 1
                for i in reversed(range(j - 1)):
                    w = cur * ladder[i]
                    if w.height() <= T:
                        cur, n = w, n + (1 << i)
                total += weight * n
        return total

    @property
    def slope(self) -> float:
        """Exact staircase slope 2 * orbit_count / log(eps)."""
        return 2 * self.orbit_count / self.spec.field.log_eps


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
