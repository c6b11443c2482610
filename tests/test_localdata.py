import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from normcensus.arith import factorize, kronecker
from normcensus.census import equation_spec
from normcensus.localdata import (
    arch_volume_hyperbola,
    lemvol_coefficient,
    local_density,
    locally_solvable,
)
from density_oracle import scan_density
from localsearch_oracle import _search_solvable, _vp


def test_locally_solvable_frozen():
    assert locally_solvable(equation_spec(34, -1), 17) is True
    assert locally_solvable(equation_spec(34, 7), 7) is False
    assert locally_solvable(equation_spec(2, 1), 2) is True
    assert locally_solvable(equation_spec(34, 17), 2) is True
    assert locally_solvable(equation_spec(34, 3), 2) is False


def test_locally_solvable_validates_p():
    for p in (1, 0, -3, 4, 9):
        with pytest.raises(ValueError):
            locally_solvable(equation_spec(34, 1), p)


def test_closed_form_matches_residue_search():
    # the decision is a Hilbert symbol; the mod-p^K Hensel scan is the
    # independent oracle, at p = 2 over all three classes of d mod 4
    for d in (2, 10, 34, 5, 13):
        for m in range(-40, 41):
            if m == 0:
                continue
            spec = equation_spec(d, m)
            for p in (3, 5, 7, 11, 13, 17):
                assert locally_solvable(spec, p) == _search_solvable(spec, p), (d, m, p)
    for d in (2, 3, 5, 10, 13, 21, 34):
        for m in range(-40, 41):
            if m == 0:
                continue
            spec = equation_spec(d, m)
            assert locally_solvable(spec, 2) == _search_solvable(spec, 2), (d, m)


# moduli p^K the residue search may use here: it allocates a few int64
# arrays of p^K entries, or loops over 2^K residues when d = 1 mod 4
_SEARCH_LIMIT = 1 << 18


def _squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(n).factors)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    d=st.integers(2, 500).filter(_squarefree),
    m=st.integers(-5000, 5000).filter(lambda m: m != 0),
    pick=st.integers(0, 10**6),
)
def test_symbol_matches_residue_search_random(d, m, pick):
    spec = equation_spec(d, m)
    # p = 2 always fits: v_2(4dm) + 3 <= 18 for d <= 500, |m| <= 5000
    places = [
        p for p, _ in factorize(2 * d * m).factors
        if p ** (_vp(4 * d * m, p, 64) + 3) <= _SEARCH_LIMIT
    ]
    p = places[pick % len(places)]
    assert locally_solvable(spec, p) == _search_solvable(spec, p), (d, m, p)


def test_local_density_frozen():
    spec = equation_spec(34, 1)
    for k in (1, 2, 3):
        assert local_density(spec, 5, k) == Fraction(4, 5)
        assert local_density(spec, 7, k) == Fraction(8, 7)
        assert local_density(spec, 3, k) == Fraction(2, 3)
    assert local_density(equation_spec(34, 7), 7, 4) == 0


def test_split_inert_closed_forms():
    for d in (2, 34):
        for m in (1, -1, 3, 7, 9):
            spec = equation_spec(d, m)
            for p in (3, 5, 7, 11, 13, 17):
                if (2 * d * m) % p == 0:
                    continue
                want = (
                    Fraction(p - 1, p)
                    if kronecker(spec.D, p) == 1
                    else Fraction(p + 1, p)
                )
                for k in (1, 2):
                    assert local_density(spec, p, k) == want, (d, m, p, k)


def test_density_stabilizes_and_detects_solvability():
    # k0 = v_p(4dm) + 3 is deep enough; beyond it the count per residue
    # class is constant.  The p = 17, |m| = 17 cases walk 17^6 residues.
    for d in (2, 34):
        for m in range(-20, 21):
            if m == 0:
                continue
            spec = equation_spec(d, m)
            for p in (2, 3, 5, 7, 17):
                k0 = _vp(4 * d * m, p, 64) + 3
                a = local_density(spec, p, k0)
                assert a == local_density(spec, p, k0 + 1), (d, m, p)
                assert (a > 0) == locally_solvable(spec, p), (d, m, p)


def test_density_validates_arguments():
    spec = equation_spec(34, 1)
    with pytest.raises(ValueError):
        local_density(spec, 5, 0)
    with pytest.raises(ValueError):
        local_density(spec, 4, 2)
    with pytest.raises(ValueError):
        local_density(spec, 5, 40)  # 5^40 residues is over the scan budget


# (p, k_max) for the recursion-vs-scan sweeps: every p^k stays <= 2^12
_SWEEP_MODULI = ((2, 12), (3, 7), (5, 5), (7, 4), (11, 3), (17, 2))
# the scan counts all 4^k pairs at p = 2 when d = 1 mod 4
_PAIR_SCAN_K_MAX = 8


def test_density_recursion_matches_scan_oracle():
    # d runs over all three classes mod 4 at p = 2, and each odd p above
    # divides some d (ramified) and not others; m carries p^0 .. p^k
    for d in (2, 3, 5, 6, 7, 10, 13, 15, 17, 21, 33, 34):
        for p, k_max in _SWEEP_MODULI:
            if p == 2 and d % 4 == 1:
                k_max = _PAIR_SCAN_K_MAX
            for k in range(1, k_max + 1):
                for u in (1, -1, 2, -3, 5, 7):
                    for v in range(k + 1):
                        spec = equation_spec(d, u * p**v)
                        got = local_density(spec, p, k)
                        assert got == scan_density(spec, p, k), (d, spec.m, p, k)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    d=st.integers(2, 500).filter(_squarefree),
    u=st.integers(-500, 500).filter(lambda u: u != 0),
    pick=st.integers(0, len(_SWEEP_MODULI) - 1),
    k=st.integers(1, 12),
    v=st.integers(0, 12),
)
def test_density_recursion_matches_scan_oracle_random(d, u, pick, k, v):
    p, k_max = _SWEEP_MODULI[pick]
    if p == 2 and d % 4 == 1:
        k_max = _PAIR_SCAN_K_MAX
    k = min(k, k_max)
    spec = equation_spec(d, u * p ** min(v, k))
    assert local_density(spec, p, k) == scan_density(spec, p, k), (d, spec.m, p, k)


def test_density_at_a_large_prime():
    # p near 10^6 does not divide 2dm: (p - chi)/p with chi = (D/p)
    p = 999_983
    for d in (2, 3, 5, 34):
        for m in (1, -1, 7, -33):
            spec = equation_spec(d, m)
            want = Fraction(p - kronecker(spec.D, p), p)
            assert local_density(spec, p, 1) == want, (d, m)


def test_lemvol_frozen_values():
    assert lemvol_coefficient(2, 2, 0, 136) == pytest.approx(4 / 136, rel=1e-15)
    q = 7.5
    assert lemvol_coefficient(3, 3, 0, q) == pytest.approx(18 / q, rel=1e-15)
    assert lemvol_coefficient(3, 1, 1, q) == pytest.approx(6 * math.pi / q, rel=1e-15)
    # r = 0 needs every place above to pair up (2s = n), or a complex base
    # place (s = n)
    assert lemvol_coefficient(4, 0, 2, q) == pytest.approx(8 * math.pi / q, rel=1e-15)
    assert lemvol_coefficient(2, 0, 2, q) == pytest.approx(4 * math.pi / q, rel=1e-15)


def test_lemvol_rejects_bad_signatures():
    for n, r, s in [(3, 2, 0), (4, 0, 1), (2, 0, 0), (3, 1, 2), (0, 1, 0)]:
        with pytest.raises(ValueError):
            lemvol_coefficient(n, r, s, 1.0)


def test_arch_volume_closed_form_anchor():
    spec = equation_spec(34, 1)
    T = 1e8
    v = arch_volume_hyperbola(spec, T)
    assert v == pytest.approx((4 / 136) * math.log(T), rel=1e-12)
    # m = 2 shifts the volume by the O(1) term -ln(2)/D per branch pair
    v2 = arch_volume_hyperbola(equation_spec(34, 2), T)
    ratio = v2 / ((4 / 136) * math.log(T))
    assert ratio == pytest.approx(1 - math.log(2) / (2 * math.log(T)), rel=1e-12)
    assert 0.98 <= ratio <= 1.0


def arch_volume_quadrature(spec, T: float) -> float:
    # the region of arch_volume_hyperbola, parametrized by y; along the
    # branch Dy^2 + 4m = (f_x)^2 and |d log|z2| / dy| = sqrt(D)/|f_x|
    D, m = spec.D, spec.m
    if T * T <= abs(m):
        return 0.0
    rD = math.sqrt(D)

    def g(yv: float) -> float:
        return 1.0 / (rD * math.sqrt(D * yv * yv + 4 * m))

    def y_of(z2: float) -> float:
        return (m / z2 - z2) / rD

    lo, hi = abs(m) / T, T
    if m > 0:
        val, _ = quad(g, y_of(hi), y_of(lo), limit=200)
        branch = val
    else:
        y_end = y_of(hi)  # = y_of(lo); the branch doubles back
        y_star = -2.0 * math.sqrt(-m) / rD
        val, _ = quad(g, y_end, y_star, limit=200)
        branch = 2.0 * val
    return 2.0 * branch


def test_arch_volume_quadrature_agrees():
    rng = random.Random(12345)
    for _ in range(20):
        d = rng.choice([2, 3, 5, 10, 13, 34])
        m = rng.choice([x for x in range(-30, 31) if x != 0])
        T = rng.uniform(50.0, 1e6)
        spec = equation_spec(d, m)
        a = arch_volume_hyperbola(spec, T)
        b = arch_volume_quadrature(spec, T)
        if a == 0.0:
            assert b == 0.0
        else:
            assert abs(a - b) / a < 0.01, (d, m, T)


def test_arch_volume_empty_region():
    assert arch_volume_hyperbola(equation_spec(34, 9), 3.0) == 0.0
    assert arch_volume_hyperbola(equation_spec(34, -9), 3.0) == 0.0
    with pytest.raises(ValueError):
        arch_volume_hyperbola(equation_spec(34, 9), 0.0)
