"""Test oracle: the number of solutions of height <= T by walking each orbit.

Starting at each window representative, the walk multiplies by eps (and by
eps^-1) one step at a time while the first (resp. second) embedding stays
inside a bound B that every solution in the height box satisfies, and counts
the members of height <= T.  The library binary-lifts over eps^(2^j) from
each orbit's minimum instead; this walk assumes neither the interval
structure of an orbit's solutions nor the location of its minimum, so the
two can be compared.  It costs O(log T / log eps) steps per orbit.
"""

from __future__ import annotations

import math
from fractions import Fraction

from normcensus.census import EquationSpec
from normcensus.counting import SolutionOrbits
from normcensus.quadfield import QuadElem


def abs1_leq(z: QuadElem, bound: int) -> bool:
    """Exact test |sigma_1(z)| <= bound for a nonnegative integer bound."""
    sq = z * z  # sigma_1(sq) = sigma_1(z)^2 >= 0
    # compare (sq.a + sq.b sqrt(d))/denom <= bound^2
    lhs = QuadElem.make(sq.a - sq.denom * bound * bound, sq.b, z.d, sq.denom)
    return lhs.sign_embed1() <= 0


def _eps_upper(spec: EquationSpec) -> Fraction:
    # rational upper bound on eps = (a + b sqrt(d))/denom
    eps = spec.field.eps
    s = math.isqrt(spec.d)
    return Fraction(eps.a + eps.b * (s + 1), eps.denom)


def walk_count(orbits: SolutionOrbits, T: int) -> int:
    """Number of solutions with max(|x|, |y|) <= T, by walking each orbit."""
    if T < 0:
        raise ValueError("T must be nonnegative")
    spec = orbits.spec
    d, m = spec.d, spec.m
    eps = spec.field.eps
    eps_inv = eps.conj()
    # |sigma_1| cutoff beyond which max(|x|,|y|) > T is guaranteed:
    # |z1| <= (1 + sqrt(d)) * T + sqrt(|m| eps) for any solution in the box
    s = math.isqrt(d)
    B = 3 * (s + 1) * max(T, 1) + math.isqrt(int(abs(m) * _eps_upper(spec))) + 2
    m2 = m * m
    total = 0
    for rep in orbits.representatives:
        z = rep
        while abs1_leq(z, B):
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
