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

from .arith import Factorization, InvariantError, factorize, kronecker, sqrt_mod_prime_power
from .classgroup import class_group, frobenius_class, sign_class
from .counting import SolutionOrbits, fundamental_solutions
from .localdata import locally_solvable
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


@dataclass(frozen=True)
class PrimeClassification:
    p: int
    e: int
    category: str  # "split" | "inert" | "ramified"
    pi: int | None  # Pi_1..Pi_4 tag for d=34, p coprime to 34


def _pi_tag_34(p: int) -> int:
    k2, k17 = kronecker(2, p), kronecker(17, p)
    if k2 == -1 and k17 == -1:
        return 1
    if k2 == 1 and k17 == 1:
        # quartic symbol ((-7+4*sqrt(2))/p); independent of the root chosen
        # since (-7+4r)(-7-4r) = 17 is a residue here
        r = sqrt_mod_prime_power(2, p, 1)
        return 3 if kronecker(-7 + 4 * r, p) == 1 else 4
    return 2


def classify_primes(spec: EquationSpec) -> list[PrimeClassification]:
    """Splitting category of every prime of m, with Pi tags when d = 34."""
    out = []
    for p, e in spec.m_fact.factors:
        if spec.D % p == 0:
            cat = "ramified"
        else:
            cat = "split" if kronecker(spec.D, p) == 1 else "inert"
        pi = None
        if spec.d == 34 and p not in (2, 17):
            pi = _pi_tag_34(p)
        out.append(PrimeClassification(p, e, cat, pi))
    return out


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
    m1: int | None = None


def _finish(spec: EquationSpec, local: dict[int, bool], c: int, m1: int | None = None) -> CensusVerdict:
    # shared by verdict and pell34_criterion: the orbits must agree with the criterion
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
    return CensusVerdict(spec.d, spec.m, local, c, solvable, slope, witness, orbits, calibration, m1)


def verdict(spec: EquationSpec) -> CensusVerdict:
    """Full decision: local solvability at every bad prime plus the character
    sum, checked against the unit orbits of the solutions.

    The predicted staircase slope is 2*c_m / (h_plus * sqrt(D) * log eps).
    Raises InvariantError when the criterion and the orbits disagree.
    """
    places = sorted({2, *spec.field.primes, *(p for p, _ in spec.m_fact.factors)})
    local = {p: locally_solvable(spec, p) for p in places}
    return _finish(spec, local, c_m(spec))


def _prod(xs) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


def pell34_criterion(m: int) -> CensusVerdict:
    """Closed-form criterion for x^2 - 34 y^2 = m.

    Write m = (-1)^s0 * 2^s1 * 17^s2 * prod p_i^e_i and split the p_i by the
    residue symbols of 2 and 17: Pi_1 both non-residues, Pi_2 with 34 a
    non-residue, Pi_3/Pi_4 both residues with quartic symbol +1/-1.  The
    character sum collapses to three terms (trivial, quadratic, and the
    conjugate quartic pair); m is representable iff it is positive mod 8 data
    (m1 = +-1 mod 8 for m1 = (-1)^s0 * prod_{Pi_1} p_i^e_i), (m1/17) = 1,
    every odd-exponent p_i has (34/p_i) = 1, and the sum is nonzero.
    """
    spec = equation_spec(34, m)
    s0 = 1 if m < 0 else 0
    s2 = spec.m_fact.exponent_of(17)
    tagged = [(c.p, c.e, c.pi) for c in classify_primes(spec) if c.pi is not None]
    pi1 = [(p, e) for p, e, t in tagged if t == 1]
    pi3 = [(p, e) for p, e, t in tagged if t == 3]
    pi4 = [(p, e) for p, e, t in tagged if t == 4]
    m1 = (-1) ** s0 * _prod(p**e for p, e in pi1)
    local = {2: m1 % 8 in (1, 7), 17: kronecker(m1, 17) == 1}
    for p, e, t in tagged:
        local[p] = e % 2 == 0 or kronecker(34, p) == 1

    # trivial character; quadratic character (Pi_1 classes square to -1,
    # Pi_4 classes to +1); the conjugate quartic pair, whose
    # Pi_1 factor is 0 for odd exponent and (-1)^(e/2) for even
    term1 = _prod(1 + e for p, e, t in tagged if t != 2)
    term2 = _prod((-1) ** e * (1 + e) for _, e in pi1) * _prod(
        1 + e for _, e in pi3 + pi4
    )
    quartic_pi1 = _prod(
        0 if e % 2 else (-1) ** (e // 2) for _, e in pi1
    )
    term3 = (
        2
        * (-1) ** (s0 + s2)
        * quartic_pi1
        * _prod(1 + e for _, e in pi3)
        * _prod((-1) ** e * (1 + e) for _, e in pi4)
    )
    c = term1 + term2 + term3
    if c < 0:
        raise InvariantError(f"closed-form character sum {c} < 0 for m={m}")
    return _finish(spec, local, c, m1)


def neg_pell_solvable(delta: int) -> bool:
    """Whether x^2 - delta*y^2 = -1 has an integer solution (delta squarefree,
    not 1 mod 4): equivalent to the fundamental unit having norm -1."""
    if delta % 4 == 1:
        raise ValueError("delta = 1 (mod 4) is outside this criterion")
    return field_data(delta).norm_eps0 == -1
