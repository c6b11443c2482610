import math
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from normcensus.arith import factorize
from normcensus.census import c_m, equation_spec, verdict
from normcensus.classgroup import class_group
from normcensus.counting import SolutionOrbits, _window_reduce, fundamental_solutions
from normcensus.quadfield import QuadElem
from brute_oracle import brute_count
from charsum_oracle import c_m_charsum
from walk_oracle import walk_count
from yscan_oracle import yscan_orbits

# squarefree d <= 200 with log eps < 16, so the y-scan oracle stays cheap
SMALL_REGULATOR_FIELDS = [
    d
    for d in range(2, 201)
    if all(e == 1 for _, e in factorize(d).factors)
    and equation_spec(d, 1).field.log_eps < 16
]


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
            orbits = fundamental_solutions(spec)
            for T in (0, 1, 10, 100, 1000, 10**4):
                assert brute_count(spec, T) == orbits.count(T), (d, m, T)


def test_orbit_count_frozen_boundaries():
    orbits = fundamental_solutions(equation_spec(34, 2))
    # (414, 71) solves x^2 - 34 y^2 = 2; four points enter at height 414
    assert orbits.count(413) == 4
    assert orbits.count(414) == 8
    assert fundamental_solutions(equation_spec(34, 1)).count(10**100) == 218
    # the window representative 4 - omega has height 4, but the minimum of
    # its orbit is (4 - omega) * eps = 3 + 2*omega, of height 3
    assert fundamental_solutions(equation_spec(5, 11)).count(3) == 4


def test_orbit_count_monotone_in_T():
    orbits = fundamental_solutions(equation_spec(34, 33))
    prev = 0
    for T in (1, 10, 50, 10**3, 10**6, 10**12, 10**30):
        cur = orbits.count(T)
        assert cur >= prev
        prev = cur
    assert prev > 0


def test_insolvable_counts_to_zero_at_any_height():
    assert fundamental_solutions(equation_spec(34, 3)).count(10**50) == 0
    assert fundamental_solutions(equation_spec(34, -1)).count(10**50) == 0


@st.composite
def _count_cases(draw):
    # (orbits, T), T often the height of an orbit member or one off it
    d = draw(st.sampled_from(SMALL_REGULATOR_FIELDS))
    if draw(st.booleans()):
        m = draw(st.integers(-300, 300).filter(lambda m: m != 0))
    else:  # a norm, so the equation is solvable
        m = equation_spec(d, 1).evaluate(draw(st.integers(-30, 30)), draw(st.integers(-2, 2)))
        assume(0 < abs(m) <= 300)
    orbits = fundamental_solutions(equation_spec(d, m))
    kind = draw(st.sampled_from(["member", "power", "small"]))
    if kind == "small":
        return orbits, draw(st.sampled_from([0, 1]))
    if kind == "power" or not orbits.representatives:
        return orbits, 10 ** draw(st.integers(0, 60))
    rep = draw(st.sampled_from(orbits.representatives))
    h = (rep * orbits.spec.field.eps ** draw(st.integers(-40, 40))).height()
    return orbits, h + draw(st.integers(-1, 1))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=_count_cases())
def test_count_matches_walk_random(case):
    orbits, T = case
    assert orbits.count(T) == walk_count(orbits, T), (orbits.spec.d, orbits.spec.m, T)


def test_count_on_orbits_not_closed_under_negation():
    # count weighs a representative 2 when its negation is also listed; on
    # hand-built orbits that drop one side of some pairs it must count the
    # rest once each, as the walk does
    for d, m in [(34, 33), (5, -11), (13, 27), (2, -119), (13458, 49)]:
        full = fundamental_solutions(equation_spec(d, m))
        reps = full.representatives
        assert set(reps) == {-z for z in reps}, (d, m)
        one_side = tuple(z for z in reps if (z.a, z.b) > (-z.a, -z.b))
        subsets = [one_side, reps[:1], reps[: len(reps) // 2 + 1], one_side + (-one_side[0],)]
        for sub in subsets:
            orbits = SolutionOrbits(full.spec, sub, len(sub))
            for T in (0, 1, 10, 10**3, 10**9, 10**40):
                assert orbits.count(T) == walk_count(orbits, T), (d, m, sub, T)
        for T in (10**3, 10**40):
            assert full.count(T) == 2 * SolutionOrbits(full.spec, one_side, len(one_side)).count(T)


def test_count_at_huge_T():
    for d, m in [(34, 33), (5, -11), (13458, 49)]:
        orbits = fundamental_solutions(equation_spec(d, m))
        assert orbits.count(10**500) == walk_count(orbits, 10**500), (d, m)
        start = time.perf_counter()
        n = orbits.count(10**10000)
        assert time.perf_counter() - start < 10, (d, m)
        # within one per orbit of the slope, as perfbench checks at 10^100
        expect = orbits.slope * (math.log(2) + 10000 * math.log(10) - math.log(abs(m)) / 2)
        assert n % 2 == 0 and abs(n - expect) <= orbits.orbit_count, (d, m, n, expect)


def test_exact_slope_frozen():
    s = fundamental_solutions(equation_spec(34, 1)).slope
    assert s == 4 / math.log(35 + 6 * math.sqrt(34))
    assert s == pytest.approx(0.9415550648032848, rel=1e-15)
    assert fundamental_solutions(equation_spec(2, -1)).slope == pytest.approx(2.269185314213022, rel=1e-15)


def test_brute_budget_error_mentions_orbit_path():
    with pytest.raises(ValueError, match="SolutionOrbits.count"):
        brute_count(equation_spec(34, 1), 10**8 + 1)
    with pytest.raises(ValueError):
        brute_count(equation_spec(34, 1), -1)


def test_calibration_value_and_rejection():
    assert verdict(equation_spec(34, 1)).calibration == pytest.approx(2 * math.sqrt(136), rel=1e-12)
    assert verdict(equation_spec(2, -1)).calibration == pytest.approx(2 * math.sqrt(8), rel=1e-12)
    # c_m = 0 at (34, 3); c_m = 1 at (2, -59), which fails at 2 and 59
    assert verdict(equation_spec(34, 3)).calibration is None
    assert verdict(equation_spec(2, -59)).calibration is None


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    d=st.sampled_from(SMALL_REGULATOR_FIELDS),
    m=st.integers(-300, 300).filter(lambda m: m != 0),
)
def test_verdict_matches_oracles_random(d, m):
    spec = equation_spec(d, m)
    v = verdict(spec)
    scanned = yscan_orbits(spec)
    assert v.solvable == (scanned.orbit_count > 0)
    assert v.orbits.representatives == scanned.representatives
    assert v.c_m == c_m_charsum(spec)
    for T in (0, 1, 10, 1000):
        assert v.orbits.count(T) == brute_count(spec, T), T
