import math

import pytest

from normcensus.census import c_m, equation_spec
from normcensus.classgroup import class_group
from normcensus.counting import (
    _window_reduce,
    calibration,
    count_via_orbits,
    exact_slope,
    fundamental_solutions,
)
from normcensus.quadfield import QuadElem
from brute_oracle import brute_count
from yscan_oracle import yscan_orbits


def test_brute_count_frozen():
    assert brute_count(equation_spec(2, -1), 10) == 8
    assert brute_count(equation_spec(34, 1), 100) == 6
    assert brute_count(equation_spec(34, 2), 100) == 4
    assert brute_count(equation_spec(34, 3), 10**4) == 0


def test_fundamental_solutions_frozen():
    def reps(d, m):
        return [str(z) for z in fundamental_solutions(equation_spec(d, m)).representatives]

    assert reps(34, 1) == ["-1", "1"]
    assert reps(34, 2) == ["-6-1*sqrt(34)", "6+1*sqrt(34)"]
    assert reps(34, 33) == [
        "-13-2*sqrt(34)",
        "-13+2*sqrt(34)",
        "13-2*sqrt(34)",
        "13+2*sqrt(34)",
    ]
    assert reps(34, -33) == [
        "-1-1*sqrt(34)",
        "-1+1*sqrt(34)",
        "1-1*sqrt(34)",
        "1+1*sqrt(34)",
    ]
    assert reps(2, -1) == ["-1-1*sqrt(2)", "1+1*sqrt(2)"]
    assert fundamental_solutions(equation_spec(34, 3)).orbit_count == 0
    assert fundamental_solutions(equation_spec(34, -1)).orbit_count == 0


def test_orbits_match_yscan_oracle():
    # reduced ideal forms against the class-group-free scan; the orbit count
    # of a solvable equation is 2 c_m / h+ (two sign orbits per ideal)
    for d in (2, 3, 5, 6, 7, 10, 13, 17, 21, 34, 79, 82, 146, 226, 399, 1155):
        for m in range(-300, 301):
            if m == 0:
                continue
            spec = equation_spec(d, m)
            got = fundamental_solutions(spec)
            want = yscan_orbits(spec)
            assert got == want, (d, m)
            if want.orbit_count:
                assert want.orbit_count * class_group(spec.D).h_plus == 2 * c_m(spec), (d, m)


def test_representatives_sit_in_the_window():
    # sqrt(|m|/eps) < |sigma_1(z)| <= sqrt(|m| eps), checked by sign tests
    # on exact field elements (no floats)
    for d, m in [(34, 2), (34, 33), (34, -33), (2, -1), (2, 7), (10, 9), (13, 3)]:
        spec = equation_spec(d, m)
        eps = spec.field.eps
        am = abs(m)
        one = QuadElem(1, 0, 1, d)
        for z in fundamental_solutions(spec).representatives:
            sq = z * z
            assert (sq - eps.scale(am)).sign_embed1() <= 0
            assert (sq * eps - one.scale(am)).sign_embed1() > 0


def test_window_reduce_fixes_representatives_and_collapses_orbits():
    for d, m in [(34, 2), (34, 33), (2, -1), (10, 9)]:
        spec = equation_spec(d, m)
        eps = spec.field.eps
        for z in fundamental_solutions(spec).representatives:
            assert _window_reduce(z, spec) == z
            w = z
            for _ in range(3):
                w = w * eps
                assert _window_reduce(w, spec) == z
            w = z
            for _ in range(3):
                w = w * eps.conj()
                assert _window_reduce(w, spec) == z


def test_every_small_solution_reduces_to_a_listed_orbit():
    for d, m in [(34, 2), (34, 33), (34, -33), (2, -1)]:
        spec = equation_spec(d, m)
        reps = set(fundamental_solutions(spec).representatives)
        found = 0
        for y in range(-(10**4), 10**4 + 1):
            if d % 4 == 1:
                s2 = d * y * y + 4 * m
            else:
                s2 = d * y * y + m
            if s2 < 0:
                continue
            t = math.isqrt(s2)
            if t * t != s2:
                continue
            for x in {t, -t} if d % 4 != 1 else {(t - y) // 2, (-t - y) // 2}:
                if spec.evaluate(x, y) != m:
                    continue
                z = QuadElem.from_coords(d, x, y)
                if max(abs(x), abs(y)) > 10**4:
                    continue
                assert _window_reduce(z, spec) in reps
                found += 1
        assert found > 0


def test_orbit_count_matches_brute_force():
    for d in (2, 5, 10, 13, 34):
        for m in range(-100, 101):
            if m == 0:
                continue
            spec = equation_spec(d, m)
            for T in (0, 1, 10, 100, 1000, 10**4):
                assert brute_count(spec, T) == count_via_orbits(spec, T), (d, m, T)


def test_orbit_count_frozen_boundaries():
    spec = equation_spec(34, 2)
    # (414, 71) solves x^2 - 34 y^2 = 2; four points enter at height 414
    assert count_via_orbits(spec, 413) == 4
    assert count_via_orbits(spec, 414) == 8
    assert count_via_orbits(equation_spec(34, 1), 10**100) == 218


def test_orbit_count_monotone_in_T():
    spec = equation_spec(34, 33)
    prev = 0
    for T in (1, 10, 50, 10**3, 10**6, 10**12, 10**30):
        cur = count_via_orbits(spec, T)
        assert cur >= prev
        prev = cur
    assert prev > 0


def test_insolvable_counts_to_zero_at_any_height():
    assert count_via_orbits(equation_spec(34, 3), 10**50) == 0
    assert count_via_orbits(equation_spec(34, -1), 10**50) == 0


def test_exact_slope_frozen():
    s = exact_slope(equation_spec(34, 1))
    assert s == 4 / math.log(35 + 6 * math.sqrt(34))
    assert s == pytest.approx(0.9415550648032848, rel=1e-15)
    assert exact_slope(equation_spec(2, -1)) == pytest.approx(2.269185314213022, rel=1e-15)


def test_brute_budget_error_mentions_orbit_path():
    with pytest.raises(ValueError, match="count_via_orbits"):
        brute_count(equation_spec(34, 1), 10**8 + 1)
    with pytest.raises(ValueError):
        brute_count(equation_spec(34, 1), -1)


def test_calibration_value_and_rejection():
    assert calibration(equation_spec(34, 1)) == pytest.approx(2 * math.sqrt(136), rel=1e-12)
    assert calibration(equation_spec(2, -1)) == pytest.approx(2 * math.sqrt(8), rel=1e-12)
    with pytest.raises(ValueError):
        calibration(equation_spec(34, 3))
