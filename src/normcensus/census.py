"""Solvability census for N(x + y*omega) = m over Z.

The decision procedure: m is representable integrally iff it is representable
over every Z_p and a character sum c_m over the narrow class group is
nonzero.  c_m also gives the predicted staircase slope of the point count.
verdict returns the one record per equation: the local data, c_m, the unit
orbits of the solutions, both slopes and their ratio, the calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import Factorization, InvariantError, _hilbert_int, factorize, kronecker
from .classgroup import class_group, frobenius_class, sign_class
from .counting import SolutionOrbits, fundamental_solutions
from .quadfield import FieldData, field_data


@dataclass(frozen=True)
class EquationSpec:
    """The equation N(x + y*omega) = m in the maximal order of Q(sqrt(d))."""

    d: int
    D: int
    m: int
    m_fact: Factorization
    field: FieldData

    def norm_form(self) -> tuple[int, int, int]:
        """(A, B, C) with N(x + y*omega) = A x^2 + B xy + C y^2."""
        if self.d % 4 == 1:
            return (1, 1, (1 - self.d) // 4)
        return (1, 0, -self.d)

    def evaluate(self, x: int, y: int) -> int:
        A, B, C = self.norm_form()
        return A * x * x + B * x * y + C * y * y


def equation_spec(d: int, m: int) -> EquationSpec:
    fd = field_data(d)
    return EquationSpec(d, fd.D, m, factorize(m), fd)


def c_m(spec: EquationSpec) -> int:
    """The number deciding the global obstruction; a nonnegative integer.

    c_m is h_plus times the number of ideals of norm |m| in one narrow
    class: the identity for m > 0, the sign class for m < 0.  By character
    orthogonality this is the character sum over the narrow class group in
    which the criterion is stated.  The ideals are counted per class: a
    ramified p^e shifts every class by frob_p^e, a split p^e spreads each
    class over frob_p^(2j-e) for j = 0..e (one choice of P^j * Pbar^(e-j)),
    and an inert p is skipped, as in the character sum: for even e its one
    ideal (p^(e/2)) is narrowly principal, and for odd e the local condition
    at p already fails.
    """
    G = class_group(spec.D)
    dist = {G.identity: 1}  # class index -> number of ideals so far
    for p, e in spec.m_fact.factors:
        if spec.D % p == 0:
            shift = G.power(frobenius_class(G, p), e)
            dist = {G.op(x, shift): k for x, k in dist.items()}
        elif kronecker(spec.D, p) == 1:
            frob = frobenius_class(G, p)
            spread: dict[int, int] = {}
            for j in range(e + 1):
                g = G.power(frob, 2 * j - e)
                for x, k in dist.items():
                    y = G.op(x, g)
                    spread[y] = spread.get(y, 0) + k
            dist = spread
    target = sign_class(G) if spec.m < 0 else G.identity
    return G.h_plus * dist.get(target, 0)


@dataclass(frozen=True)
class CensusVerdict:
    """Everything the criterion says about one equation, and what its
    solutions show.  calibration = orbits.slope / predicted_slope when
    solvable, else None."""

    d: int
    m: int
    locally_solvable: dict[int, bool]
    c_m: int
    solvable: bool
    predicted_slope: float
    witness: tuple[int, int] | None
    orbits: SolutionOrbits
    calibration: float | None


def _finish(spec: EquationSpec, local: dict[int, bool], c: int) -> CensusVerdict:
    # verdict's tail, shared with the d = 34 closed form in tests/pell34_oracle.py:
    # the orbits must agree with the criterion
    solvable = all(local.values()) and c > 0
    orbits = fundamental_solutions(spec)
    if solvable != (orbits.orbit_count > 0):
        said = "solvable" if solvable else "unsolvable"
        raise InvariantError(
            f"criterion says {said} but {orbits.orbit_count} orbits found for d={spec.d}, m={spec.m}"
        )
    slope = 2 * c / (class_group(spec.D).h_plus * math.sqrt(spec.D) * spec.field.log_eps)
    witness = None
    if solvable:
        witness = min(
            (z.coords() for z in orbits.representatives),
            key=lambda xy: (max(abs(xy[0]), abs(xy[1])), xy[0] < 0, xy[1] < 0),
        )
    calibration = orbits.slope / slope if solvable else None
    return CensusVerdict(spec.d, spec.m, local, c, solvable, slope, witness, orbits, calibration)


def verdict(spec: EquationSpec) -> CensusVerdict:
    """Full decision: local solvability at every bad prime plus the character
    sum, checked against the unit orbits of the solutions.

    The predicted staircase slope is 2*c_m / (h_plus * sqrt(D) * log eps).
    Raises InvariantError when the criterion and the orbits disagree.
    """
    places = sorted({2, *spec.field.primes, *(p for p, _ in spec.m_fact.factors)})
    # locally_solvable at each place; the places come from factorizations, so
    # the symbol's primality check is skipped
    local = {p: _hilbert_int(spec.d, spec.m, p) == 1 for p in places}
    return _finish(spec, local, c_m(spec))


def neg_pell_solvable(delta: int) -> bool:
    """Whether x^2 - delta*y^2 = -1 has an integer solution (delta squarefree,
    not 1 mod 4): equivalent to the fundamental unit having norm -1."""
    if delta % 4 == 1:
        raise ValueError("delta = 1 (mod 4) is outside this criterion")
    return field_data(delta).norm_eps0 == -1
