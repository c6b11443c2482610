import math
import random
from fractions import Fraction

import pytest

from normcensus.quadfield import QuadElem, field_data
from walk_oracle import abs1_leq


def _brute_fundamental_unit(d):
    # smallest unit > 1 of the maximal order, by direct scan over y
    best = None
    for b in range(1, 3000):
        if d % 4 == 1:
            for a2 in (-4, 4):  # smaller |a| first, so the first hit is minimal
                t = d * b * b + a2
                a = math.isqrt(t)
                if t > 0 and a * a == t and (a - b) % 2 == 0:
                    return QuadElem.make(a, b, d, 2)
        else:
            for a2 in (-1, 1):
                t = d * b * b + a2
                a = math.isqrt(t)
                if t > 0 and a * a == t:
                    return QuadElem(a, b, 1, d)
    raise AssertionError("scan exhausted")


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 13, 15, 19, 21, 34])
def test_eps0_minimal(d):
    assert field_data(d).eps0 == _brute_fundamental_unit(d)


@pytest.mark.parametrize(
    "d,a,b,denom,norm",
    [
        (2, 1, 1, 1, -1),
        (10, 3, 1, 1, -1),
        (34, 35, 6, 1, 1),
        (5, 1, 1, 2, -1),
        (13, 3, 1, 2, -1),
        (3, 2, 1, 1, 1),
    ],
)
def test_eps0_frozen(d, a, b, denom, norm):
    fd = field_data(d)
    assert fd.eps0 == QuadElem.make(a, b, d, denom)
    assert fd.norm_eps0 == norm
    assert fd.eps.norm() == 1
    if norm == -1:
        assert fd.eps == fd.eps0 * fd.eps0
    else:
        assert fd.eps == fd.eps0


def test_discriminant_choice():
    assert field_data(34).D == 136
    assert field_data(2).D == 8
    assert field_data(5).D == 5
    assert field_data(13).D == 13


@pytest.mark.parametrize("d", [0, 1, 4, 12, 18, -3])
def test_field_data_rejects(d):
    with pytest.raises(ValueError):
        field_data(d)


def test_unit_orbit_product():
    z = QuadElem(6, 1, 1, 34)
    eps = field_data(34).eps
    w = z * eps
    assert (w.a, w.b, w.denom) == (414, 71, 1)
    assert w.norm() == 2


def _random_elem(rng, d):
    if d % 4 == 1 and rng.random() < 0.5:
        a = rng.randrange(-20, 21)
        b = rng.randrange(-20, 21)
        if (a - b) % 2:
            a += 1
        if a == 0 and b == 0:
            a = 2
        return QuadElem.make(a, b, d, 2)
    a, b = rng.randrange(-20, 21), rng.randrange(-20, 21)
    if a == 0 and b == 0:
        a = 1
    return QuadElem(a, b, 1, d)


@pytest.mark.parametrize("d", [2, 5, 13, 34])
def test_norm_and_trace_algebra(d):
    rng = random.Random(d)
    for _ in range(200):
        z, w = _random_elem(rng, d), _random_elem(rng, d)
        assert (z * w).norm() == z.norm() * w.norm()
        assert z.norm() == z * z.conj() if False else (z * z.conj()).coords()[1] == 0
        assert z.trace() == (z + z.conj()).coords()[0]
        assert (z + w).coords()[0] == z.coords()[0] + w.coords()[0]


def test_coords_roundtrip():
    rng = random.Random(3)
    for d in (2, 34, 5, 13):
        for _ in range(100):
            z = _random_elem(rng, d)
            x, y = z.coords()
            assert QuadElem.from_coords(d, x, y) == z


def test_unit_inverse_and_pow():
    for d in (2, 10, 34, 5):
        fd = field_data(d)
        assert (fd.eps0 * fd.eps0.unit_inverse()).is_one()
        assert fd.eps ** 3 * fd.eps ** (-3) == QuadElem(1, 0, 1, d)
        assert fd.eps ** (-1) == fd.eps.unit_inverse()


def test_exact_embedding_comparisons():
    z = QuadElem(6, -1, 1, 34)  # 6 - sqrt(34) = 0.169...
    assert z.sign_embed1() == 1
    assert abs1_leq(z, 1)
    assert not abs1_leq(z, 0)
    w = QuadElem(-6, -1, 1, 34)  # -11.83...
    assert w.sign_embed1() == -1
    assert abs1_leq(w, 12) and not abs1_leq(w, 11)


def test_half_integer_validation():
    with pytest.raises(ValueError):
        QuadElem.make(1, 2, 5, 2)  # parity mismatch
    with pytest.raises(ValueError):
        QuadElem.make(1, 1, 2, 2)  # denom 2 needs d = 1 mod 4
    z = QuadElem.make(2, 4, 5, 2)  # even/even normalizes
    assert z.denom == 1 and (z.a, z.b) == (1, 2)


def test_half_integer_norm():
    omega = QuadElem.make(1, 1, 5, 2)
    assert omega.norm() == -1
    assert omega.trace() == 1
    golden = field_data(5).eps0
    assert golden == omega


def test_str_forms():
    assert str(QuadElem(35, 6, 1, 34)) == "35+6*sqrt(34)"
    assert str(QuadElem(6, -1, 1, 34)) == "6-1*sqrt(34)"
    assert str(QuadElem.make(3, 1, 13, 2)) == "(3+1*sqrt(13))/2"
