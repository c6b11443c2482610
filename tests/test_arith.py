import math
import random
from fractions import Fraction

import pytest

from normcensus.arith import (
    Factorization,
    factorize,
    hilbert_symbol,
    is_prime,
    kronecker,
    sqrt_mod_prime_power,
    sqrt_roots_mod,
    sqrt_roots_mod_prime_power,
)


def _sieve(n):
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(n + 1) if flags[i]]


PRIMES_10K = _sieve(10_000)


def test_is_prime_against_sieve():
    primes = set(PRIMES_10K)
    for n in range(10_000 + 1):
        assert is_prime(n) == (n in primes), n


@pytest.mark.parametrize(
    "n,expected",
    [
        (2**61 - 1, True),
        (2**89 - 1, True),
        (561, False),  # Carmichael
        (41041, False),  # Carmichael
        (3215031751, False),  # strong pseudoprime to bases 2,3,5,7
        (10**18 + 9, True),
        (10**18 + 7, False),
    ],
)
def test_is_prime_known_values(n, expected):
    assert is_prime(n) == expected


def test_factorize_roundtrip_small():
    for n in range(1, 5000):
        for s in (n, -n):
            f = factorize(s)
            assert f.value() == s
            for p, e in f.factors:
                assert e >= 1 and is_prime(p)


def test_factorize_random_64bit():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.getrandbits(62) + 2
        f = factorize(n)
        assert f.value() == n
        assert all(is_prime(p) for p, _ in f.factors)


def test_factorize_semiprime():
    p, q = 1_000_000_007, 998_244_353
    f = factorize(p * q)
    assert f.factors == ((q, 1), (p, 1))


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorization_exponent_of():
    f = factorize(-720)
    assert f.sign == -1
    assert f.exponent_of(2) == 4 and f.exponent_of(3) == 2 and f.exponent_of(7) == 0


def test_kronecker_matches_euler_criterion():
    # independent oracle: Euler's criterion at odd primes
    for p in [q for q in PRIMES_10K[1:50]]:
        for a in range(-p, p + 1):
            want = pow(a % p, (p - 1) // 2, p)
            want = -1 if want == p - 1 else want
            assert kronecker(a, p) == want, (a, p)


def test_kronecker_at_two_and_units():
    table = {1: 1, 3: -1, 5: -1, 7: 1}
    for a in range(-40, 41):
        expected = 0 if a % 2 == 0 else table[a % 8]
        assert kronecker(a, 2) == expected
    for a in range(-10, 11):
        assert kronecker(a, 1) == 1
        assert kronecker(a, -1) == (1 if a >= 0 else -1)


def test_kronecker_multiplicative():
    rng = random.Random(11)
    for _ in range(500):
        a, b = rng.randint(-300, 300), rng.randint(-300, 300)
        n, m = rng.randint(1, 300), rng.randint(1, 300)
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)
        assert kronecker(a, n * m) == kronecker(a, n) * kronecker(a, m)


@pytest.mark.parametrize("p,kmax", [(2, 11), (3, 7), (5, 5), (7, 4), (11, 3), (13, 3)])
def test_sqrt_roots_exhaustive(p, kmax):
    # brute oracle over every residue of every modulus p^k
    for k in range(1, kmax + 1):
        M = p**k
        true_roots = {}
        for x in range(M):
            true_roots.setdefault(x * x % M, set()).add(x)
        for a in range(M):
            want = true_roots.get(a, set())
            got = set(sqrt_roots_mod_prime_power(a, p, k))
            assert got == want, (a, p, k)
            r = sqrt_mod_prime_power(a, p, k)
            if want:
                assert r in want
            else:
                assert r is None


def test_sqrt_roots_mod_composite_exhaustive():
    # CRT of the prime-power roots against every residue of every n <= 300
    for n in range(1, 301):
        factors = factorize(n).factors
        true_roots = {}
        for x in range(n):
            true_roots.setdefault(x * x % n, []).append(x)
        for a in range(-n, n):
            assert sqrt_roots_mod(a, factors) == true_roots.get(a % n, []), (a, n)


def test_hilbert_anchor_values():
    assert hilbert_symbol(-1, -1, math.inf) == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, 3) == 1
    assert hilbert_symbol(2, 2, 2) == 1  # 2*1 + 2*1 = 2^2
    assert hilbert_symbol(3, 3, 2) == -1
    assert hilbert_symbol(5, 2, 2) == -1
    assert hilbert_symbol(2, 7, 7) == 1  # 2 is a square mod 7
    assert hilbert_symbol(3, 7, 7) == -1
    assert hilbert_symbol(Fraction(3, 2), Fraction(1, 3), 2) == 1


def test_hilbert_fraction_reads_as_integer():
    # n/q and n*q differ by the square q^2, so they have the same symbol
    rng = random.Random(29)
    for _ in range(2000):
        n = rng.choice([-1, 1]) * rng.randint(1, 10**6)
        q = rng.randint(1, 10**4)
        b = rng.choice([-1, 1]) * rng.randint(1, 10**6)
        v = rng.choice([2, 3, 5, 7, 11, 13, 10007, math.inf])
        assert hilbert_symbol(Fraction(n, q), b, v) == hilbert_symbol(n * q, b, v), (n, q, b, v)


def test_hilbert_validates_place():
    for place in (9, 4, 1, 0, -3, 2.0):
        with pytest.raises(ValueError):
            hilbert_symbol(3, 5, place)
    with pytest.raises(ValueError):
        hilbert_symbol(Fraction(0), 5, 3)


def test_hilbert_bilinear_symmetric():
    rng = random.Random(13)
    places = [2, 3, 5, 7, math.inf]
    for _ in range(400):
        a1 = Fraction(rng.choice([i for i in range(-30, 31) if i]), rng.randint(1, 30))
        a2 = Fraction(rng.choice([i for i in range(-30, 31) if i]), rng.randint(1, 30))
        b = Fraction(rng.choice([i for i in range(-30, 31) if i]), rng.randint(1, 30))
        v = rng.choice(places)
        assert hilbert_symbol(a1, b, v) == hilbert_symbol(b, a1, v)
        assert hilbert_symbol(a1 * a2, b, v) == hilbert_symbol(a1, b, v) * hilbert_symbol(a2, b, v)


def test_hilbert_steinberg_relations():
    rng = random.Random(17)
    for _ in range(300):
        a = Fraction(rng.choice([i for i in range(-20, 21) if i]), rng.randint(1, 20))
        v = rng.choice([2, 3, 5, math.inf])
        assert hilbert_symbol(a, -a, v) == 1
        if a not in (0, 1):
            assert hilbert_symbol(a, 1 - a, v) == 1


def test_hilbert_squares_trivial():
    for a in (2, -3, Fraction(5, 7), -1):
        for v in (2, 3, 5, math.inf):
            assert hilbert_symbol(a, Fraction(9, 4), v) == 1
            assert hilbert_symbol(a * a, Fraction(-7, 5), v) == 1
