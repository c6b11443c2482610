"""Test oracle: the closed-form solvability criterion for x^2 - 34 y^2 = m.

The library decides every field by counting ideals per narrow class
(census.c_m).  For d = 34 the character sum collapses to three terms that
depend only on how each prime of m splits and on a quartic residue symbol,
so it gives an independent check of c_m and of the local conditions.  The
record is built by the library's own tail (census._finish), so the closed
form is also checked against the unit orbits; it carries the closed form's
m1 beside the usual fields.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from normcensus.arith import InvariantError, kronecker, sqrt_mod_prime_power
from normcensus.census import CensusVerdict, EquationSpec, _finish, equation_spec


@dataclass(frozen=True)
class Pell34Verdict(CensusVerdict):
    m1: int | None = None


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


def _prod(xs) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


def pell34_criterion(m: int) -> Pell34Verdict:
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
    v = _finish(spec, local, c)
    return Pell34Verdict(**{f.name: getattr(v, f.name) for f in fields(CensusVerdict)}, m1=m1)
