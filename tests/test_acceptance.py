"""Acceptance checks, one per shipped guarantee.

Each test prints a single ACCEPTANCE line (visible with pytest -s or in the
captured output) and asserts the guarantee at its stated tolerance.
"""

import math
import random
from fractions import Fraction

from normcensus.arith import factorize, hilbert_symbol, kronecker
from normcensus.census import (
    c_m,
    equation_spec,
    neg_pell_solvable,
    verdict,
)
from normcensus.classgroup import class_group, frobenius_class, sign_class
from normcensus.counting import fundamental_solutions
from normcensus.hassewitt import arch_h_limit, c_n_a, diagonalize, hasse_invariant
from normcensus.localdata import arch_volume_hyperbola, lemvol_coefficient, local_density
from normcensus.quadfield import field_data
from brute_oracle import brute_count
from pell34_oracle import pell34_criterion
from yscan_oracle import yscan_orbits


def _line(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")


def test_criterion_01_class_field_anchors():
    G = class_group(136)
    checks = [
        G.h_plus == 4,
        len(G.decomposition) == 1 and G.decomposition[0][1] == 4,
        G.order_of(frobenius_class(G, 2)) == 1,
        G.order_of(frobenius_class(G, 17)) == 2,
        G.order_of(frobenius_class(G, 3)) == 4,
        G.order_of(sign_class(G)) == 2,
    ]
    ok = all(checks)
    _line(1, ok, "narrow class group of disc 136 is cyclic of order 4 with the expected prime classes")
    assert ok, checks


def test_criterion_02_unit_anchors():
    f34 = field_data(34)
    f2 = field_data(2)
    checks = [
        str(f34.eps) == "35+6*sqrt(34)",
        f34.norm_eps0 == 1,
        str(f2.eps0) == "1+1*sqrt(2)",
        f2.norm_eps0 == -1,
    ]
    ok = all(checks)
    _line(2, ok, "fundamental units for d=34 and d=2 are exact")
    assert ok, checks


def test_criterion_03_verdict_equals_brute_force():
    bad = []
    for d in (2, 10, 34):
        for m in range(-300, 301):
            if m == 0:
                continue
            spec = equation_spec(d, m)
            has_solution = yscan_orbits(spec).orbit_count > 0
            if verdict(spec).solvable != has_solution:
                bad.append((d, m))
    ok = not bad
    _line(3, ok, "solvability verdict matches exhaustive search, d in {2,10,34}, 1 <= |m| <= 300")
    assert ok, bad


def test_criterion_04_pell34_closed_form_agrees():
    bad = []
    for m in range(-300, 301):
        if m == 0:
            continue
        a = pell34_criterion(m)
        b = verdict(equation_spec(34, m))
        if a.solvable != b.solvable or a.predicted_slope != b.predicted_slope:
            bad.append(m)
    ok = not bad
    _line(4, ok, "closed-form d=34 criterion matches the character-sum machinery, 1 <= |m| <= 300")
    assert ok, bad


def test_criterion_05_known_obstructions():
    checks = []
    for m in (-1, -2):
        spec = equation_spec(34, m)
        v = verdict(spec)
        checks.append(all(v.locally_solvable.values()))
        checks.append(v.c_m == 0)
        checks.append(brute_count(spec, 10**6) == 0)
    ok = all(checks)
    _line(5, ok, "m = -1, -2 for d = 34: locally solvable everywhere, zero character sum, no point below 10^6")
    assert ok, checks


def test_criterion_06_negative_pell_three_ways():
    bad = []
    for delta in range(2, 51):
        if delta % 4 == 1:
            continue
        if any(e > 1 for _, e in factorize(delta).factors):
            continue
        crit = neg_pell_solvable(delta)
        G = class_group(field_data(delta).D)
        narrow_equals_wide = G.order_of(sign_class(G)) == 1
        brute = yscan_orbits(equation_spec(delta, -1)).orbit_count > 0
        if not (crit == narrow_equals_wide == brute):
            bad.append((delta, crit, narrow_equals_wide, brute))
    ok = not bad
    _line(6, ok, "negative Pell solvability = trivial sign class = exhaustive search, squarefree delta <= 50")
    assert ok, bad


def test_criterion_07_slope_ratios_are_character_sum_ratios():
    spec1 = equation_spec(34, 1)
    oc1 = yscan_orbits(spec1).orbit_count
    c1 = c_m(spec1)
    expect_ratio = {1: Fraction(1), 2: Fraction(1), 9: Fraction(1), 33: Fraction(2), -33: Fraction(2)}
    bad = []
    for m in (1, 2, 9, 33, -33):
        spec = equation_spec(34, m)
        ocm = yscan_orbits(spec).orbit_count
        cm = c_m(spec)
        # exact_slope(m)/exact_slope(1) = ocm/oc1 must equal cm/c1
        if ocm * c1 != cm * oc1:
            bad.append(m)
        if Fraction(ocm, oc1) != expect_ratio[m]:
            bad.append((m, "ratio"))
    ok = not bad
    _line(7, ok, "exact slope ratios equal character-sum ratios for m in {1,2,9,33,-33}")
    assert ok, bad


def test_criterion_08_calibration_is_m_independent():
    report = {}
    ok = True
    for d in (2, 34):
        vals = []
        for m in range(-50, 51):
            if m == 0:
                continue
            v = verdict(equation_spec(d, m))
            if not v.solvable:
                continue
            vals.append(v.calibration)
        mean = sum(vals) / len(vals)
        spread = (max(vals) - min(vals)) / mean
        report[d] = mean
        if spread > 0.01:
            ok = False
    _line(8, ok, f"calibration constant m-independent within 1%; common values {report}")
    assert ok, report


def test_criterion_09_staircase_convergence():
    bad = []
    for m in (1, 2, 33):
        spec = equation_spec(34, m)
        orbits = fundamental_solutions(spec)
        slope = orbits.slope
        oc = orbits.orbit_count
        for k in range(1, 11):
            logt = 10 * k * math.log(10)
            lhs = abs(orbits.count(10 ** (10 * k)) / logt - slope)
            if lhs > 2 * oc / logt:
                bad.append((m, k))
    ok = not bad
    _line(9, ok, "orbit staircase converges to the exact slope up to T = 10^100")
    assert ok, bad


def test_criterion_10_local_densities_closed_form():
    bad = []
    for d in (2, 34):
        for m in range(-10, 11):
            if m == 0:
                continue
            spec = equation_spec(d, m)
            for p in (3, 5, 7, 11, 13, 17):
                if (2 * d * m) % p == 0:
                    continue
                want = Fraction(p - 1, p) if kronecker(spec.D, p) == 1 else Fraction(p + 1, p)
                if local_density(spec, p, 3) != want:
                    bad.append((d, m, p))
    ok = not bad
    _line(10, ok, "stabilized densities equal 1 -+ 1/p off the bad primes, d in {2,34}, |m| <= 10")
    assert ok, bad


def test_criterion_11_archimedean_volume():
    T = 1e8
    ratio = arch_volume_hyperbola(equation_spec(34, 1), T) / ((4 / 136) * math.log(T))
    q = 136.0
    lem_ok = (
        lemvol_coefficient(2, 2, 0, q) == (4 / q)
        and abs(lemvol_coefficient(3, 3, 0, q) - 18 / q) <= 1e-15 * (18 / q)
        and abs(lemvol_coefficient(3, 1, 1, q) - 6 * math.pi / q) <= 1e-15 * (6 * math.pi / q)
    )
    ok = 0.98 <= ratio <= 1.02 and lem_ok
    _line(11, ok, f"hyperbola volume growth ratio {ratio:.6f} in [0.98, 1.02]; leading coefficients exact")
    assert ok, (ratio, lem_ok)


def test_criterion_12_hasse_witt_anchors():
    l_minus = diagonalize([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    l_plus = diagonalize([[2, 1, 0], [1, 2, 0], [0, 0, Fraction(1, 3)]])
    checks = [
        hasse_invariant(l_minus, 2) == -1,
        hasse_invariant(l_plus, 2) == 1,
        c_n_a(3, 1).c_value == Fraction(1, 2),
        c_n_a(6, 1).c_value == 1,
        c_n_a(6, 7).c_value == 1,
        c_n_a(10, 3).c_value == 1,
        arch_h_limit(6, 1) == 0,
    ]
    rng = random.Random(2024)
    failures = 0
    for _ in range(1000):
        a = rng.randint(-200, 200) or 1
        b = rng.randint(-200, 200) or 1
        places = {2, float("inf")}
        for p, _e in factorize(abs(a * b)).factors:
            places.add(p)
        total = 1
        for v in places:
            total *= hilbert_symbol(a, b, v)
        if total != 1:
            failures += 1
    checks.append(failures == 0)
    ok = all(checks)
    _line(12, ok, "Hasse-Witt anchors, c_3(1) = 1/2, trivial constants for n = 2 mod 4, reciprocity 1000/1000")
    assert ok, checks
