from math import gcd

import pytest

from charsum_oracle import CycInt, cyclotomic_poly


@pytest.mark.parametrize(
    "n,coeffs",
    [
        (1, [-1, 1]),
        (2, [1, 1]),
        (3, [1, 1, 1]),
        (4, [1, 0, 1]),
        (6, [1, -1, 1]),
        (12, [1, 0, -1, 0, 1]),
    ],
)
def test_cyclotomic_poly_small(n, coeffs):
    assert list(cyclotomic_poly(n)) == coeffs


def test_cyclotomic_poly_degree_and_product():
    def phi(n):
        return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)

    for n in range(1, 31):
        assert len(cyclotomic_poly(n)) - 1 == phi(n)
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                f = cyclotomic_poly(d)
                new = [0] * (len(prod) + len(f) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(f):
                        new[i + j] += a * b
                prod = new
        want = [0] * (n + 1)
        want[0], want[n] = -1, 1
        assert prod == want


def test_root_power_and_sum():
    for n in (2, 3, 4, 5, 6, 8, 12):
        z = CycInt.root(n, 1)
        one = CycInt.integer(n, 1)
        acc = one
        total = CycInt.zero(n)
        for k in range(n):
            total = total + CycInt.root(n, k)
            acc = acc * z
        assert acc == one  # z^n = 1
        if n > 1:
            assert total == CycInt.zero(n)
            assert total.as_int() == 0


def test_rationality_detection():
    z4 = CycInt.root(4, 1)
    assert z4.as_int() is None
    z3 = CycInt.root(3, 1)
    assert (z3 + z3 * z3).as_int() == -1  # zeta_3 + zeta_3^2
    assert (z3 * z3.conj()).as_int() == 1


def test_conjugation_is_inverse():
    for n in (3, 4, 5, 8, 12):
        for k in range(n):
            z = CycInt.root(n, k)
            assert z * z.conj() == CycInt.integer(n, 1)


def test_ring_identities():
    z = CycInt.root(8, 1)
    one = CycInt.integer(8, 1)
    assert (one + z) * (one - z) == one - z * z
    assert z * CycInt.zero(8) == CycInt.zero(8)
    # zeta_8^2 = zeta_4 in the subring sense: (z^2)^2 = -1
    m = z * z
    assert (m * m).as_int() == -1
