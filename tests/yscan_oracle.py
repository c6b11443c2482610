"""Test oracle: unit-orbit representatives by scanning y.

Every eps-orbit of solutions of N(x + y*omega) = m has a member with
|y| <= sqrt(|m| eps / d) (times 2 when d = 1 mod 4), so scanning that range
and reducing each solution into the window finds every orbit.  The library
derives the orbits from reduced ideal forms instead; this scan uses neither
the class group nor forms, so the two can be compared.  It costs
O(sqrt(|m| eps / d)) steps, which limits it to small regulators.
"""

from __future__ import annotations

import math
from fractions import Fraction

from normcensus.census import EquationSpec
from normcensus.counting import SolutionOrbits, _window_reduce
from normcensus.quadfield import QuadElem

from brute_oracle import _x_solutions
from walk_oracle import _eps_upper


def yscan_orbits(spec: EquationSpec) -> SolutionOrbits:
    """One canonical representative per eps-orbit, found by the y-scan."""
    d, m = spec.d, spec.m
    bound = Fraction(abs(m)) * _eps_upper(spec) / d
    if d % 4 == 1:
        bound *= 4
    Y = math.isqrt(int(bound)) + 1
    reps: set[QuadElem] = set()
    for y in range(-Y, Y + 1):
        for x in _x_solutions(spec, y):
            assert spec.evaluate(x, y) == m
            reps.add(_window_reduce(QuadElem.from_coords(d, x, y), spec))
    ordered = tuple(sorted(reps, key=lambda z: (z.a, z.b, z.denom)))
    return SolutionOrbits(spec, ordered, len(ordered))
