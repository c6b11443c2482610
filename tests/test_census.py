import pytest

from charsum_oracle import CycInt, c_m_charsum, characters, delta_p
from normcensus.census import (
    c_m,
    equation_spec,
    neg_pell_solvable,
    verdict,
)
from normcensus.classgroup import class_group
from pell34_oracle import classify_primes, pell34_criterion

# Character-sum values for x^2 - 34 y^2 = m, frozen from the closed-form
# case analysis (they also pin the slope ratios downstream).
C_TABLE_34 = {
    1: 4,
    2: 4,
    3: 0,
    7: 4,
    9: 4,
    17: 0,
    33: 8,
    -1: 0,
    -2: 0,
    -17: 4,
    -33: 8,
}


def test_spec_construction_and_norm_form():
    s = equation_spec(34, 33)
    assert (s.d, s.D, s.m) == (34, 136, 33)
    assert s.norm_form() == (1, 0, -34)
    assert s.evaluate(13, 2) == 33
    t = equation_spec(5, -1)
    assert t.norm_form() == (1, 1, -1)
    assert t.evaluate(0, 1) == -1  # N(omega) for the golden ratio order
    with pytest.raises(ValueError):
        equation_spec(34, 0)
    with pytest.raises(ValueError):
        equation_spec(12, 1)


def test_delta_p_geometric_sum_identity():
    # delta = sum_{j=0}^{e} w^(2j-e) with w = zeta_n^a satisfies
    # delta * (w - w^-1) = w^(e+1) - w^-(e+1); for w^2 = 1 it collapses
    # to (e+1) * w^e.  Exact in Z[x]/(x^n - 1).
    for n in range(2, 13):
        for a in range(n):
            w = CycInt.root(n, a)
            winv = CycInt.root(n, -a)
            for e in range(9):
                d = delta_p(n, a, e)
                if (2 * a) % n == 0:
                    assert d == CycInt.root(n, a * e) * CycInt.integer(n, e + 1)
                else:
                    lhs = d * (w - winv)
                    rhs = CycInt.root(n, a * (e + 1)) - CycInt.root(n, -a * (e + 1))
                    assert lhs == rhs


def test_classify_primes_tags():
    tags = {c.p: c.pi for c in classify_primes(equation_spec(34, 3 * 5 * 7 * 11))}
    assert tags[3] == 1 and tags[5] == 1 and tags[11] == 1
    assert tags[7] == 2
    cats = {c.p: c.category for c in classify_primes(equation_spec(34, 2 * 17 * 3))}
    assert cats[2] == "ramified" and cats[17] == "ramified" and cats[3] == "split"


def test_pi_tags_match_frobenius_orders():
    # Pi_1 <-> order-4 class, Pi_3 <-> principal, Pi_4 <-> order 2.
    from normcensus.arith import kronecker
    from normcensus.classgroup import class_group, frobenius_class

    G = class_group(136)
    order_for_tag = {1: 4, 3: 1, 4: 2}
    checked = 0
    for p in range(3, 300):
        if any(p % q == 0 for q in (2, 3, 5, 7, 11, 13)) and p not in (3, 5, 7, 11, 13):
            continue
        spec = equation_spec(34, p)
        (cls,) = classify_primes(spec)
        if cls.category != "split":
            assert cls.pi in (None, 2)
            continue
        assert cls.pi in (1, 3, 4)
        assert G.order_of(frobenius_class(G, p)) == order_for_tag[cls.pi]
        checked += 1
    assert checked >= 25


def test_c_m_frozen_values():
    for m, expected in C_TABLE_34.items():
        assert c_m(equation_spec(34, m)) == expected, m


def test_c_m_class_count_equals_character_sum():
    # the class count against the character sum in Z[zeta_n]; the oracle is
    # only trusted on fields where its characters are homomorphisms
    for d in (2, 3, 5, 10, 13, 34, 79, 82, 146, 226, 399, 1155):
        G = class_group(equation_spec(d, 1).D)
        n = G.exponent
        for chi in characters(G):
            for i in range(G.h_plus):
                for j in range(G.h_plus):
                    assert chi.exponent(G.op(i, j)) == (chi.exponent(i) + chi.exponent(j)) % n, d
        for m in range(-200, 201):
            if m != 0:
                spec = equation_spec(d, m)
                assert c_m(spec) == c_m_charsum(spec), (d, m)


def test_verdict_witnesses():
    v = verdict(equation_spec(34, 33))
    assert v.solvable and v.c_m == 8
    assert v.witness == (13, 2)
    assert v.witness is not None and equation_spec(34, 33).evaluate(*v.witness) == 33
    v9 = verdict(equation_spec(34, 9))
    assert v9.witness == (3, 0)


def test_character_sum_obstruction_for_17():
    # every completion solves x^2 - 34 y^2 = 17 (17 = (7^2 - 34*1)/... is
    # rationally representable) yet no integral solution exists
    v = verdict(equation_spec(34, 17))
    assert all(v.locally_solvable.values())
    assert v.c_m == 0
    assert not v.solvable
    assert v.witness is None


def test_pell34_m1_and_cases():
    r33 = pell34_criterion(33)
    assert r33.m1 == 33 and r33.solvable and r33.c_m == 8
    # 7 is inert with odd exponent: locally dead at 7, yet the character
    # sum itself is nonzero
    r7 = pell34_criterion(7)
    assert r7.m1 == 1 and r7.c_m == 4 and not r7.solvable
    assert r7.locally_solvable[7] is False
    rm17 = pell34_criterion(-17)
    assert rm17.m1 == -1 and rm17.solvable and rm17.c_m == 4
    # m = 9: Pi_1 = {3^2}, all exponents even; the sign term lands on +1
    r9 = pell34_criterion(9)
    assert r9.m1 == 9 and r9.c_m == 4 and r9.solvable
    # m = -1: Pi_1 empty and the negative sign breaks the parity condition
    rm1 = pell34_criterion(-1)
    assert rm1.m1 == -1 and rm1.c_m == 0 and not rm1.solvable


def test_pell34_agrees_with_general_verdict_smallband():
    for m in range(-30, 31):
        if m == 0:
            continue
        a = pell34_criterion(m)
        b = verdict(equation_spec(34, m))
        assert a.solvable == b.solvable, m
        assert a.c_m == b.c_m, m
        assert a.predicted_slope == b.predicted_slope, m
        assert a.witness == b.witness, m


def test_neg_pell_frozen():
    expected = {2, 10, 26}
    for delta in range(2, 51):
        from normcensus.arith import factorize

        if delta % 4 == 1 or any(e > 1 for _, e in factorize(delta).factors):
            continue
        assert neg_pell_solvable(delta) == (delta in expected), delta
    with pytest.raises(ValueError):
        neg_pell_solvable(5)


def test_insolvable_has_zero_slope():
    v = verdict(equation_spec(34, -2))
    assert v.c_m == 0 and v.predicted_slope == 0.0 and not v.solvable
