import math

import pytest

from charsum_oracle import characters
from normcensus.arith import is_prime, kronecker
from normcensus.classgroup import (
    Form,
    class_group,
    compose,
    frobenius_class,
    reduce_form,
    sign_class,
)
from normcensus.quadfield import field_data

# Squarefree d in both residue classes; D covers h+ = 1, 2 and 4.
FIELDS = [2, 3, 5, 6, 7, 10, 13, 15, 21, 26, 34]


def test_frozen_class_numbers():
    assert class_group(8).h_plus == 1
    assert class_group(40).h_plus == 2
    assert class_group(136).h_plus == 4
    assert class_group(5).h_plus == 1
    assert class_group(60).h_plus == 4
    assert class_group(104).h_plus == 2


def test_rejects_non_fundamental():
    for D in (20, 16, 45, 9, -4, 7, 48):
        with pytest.raises(ValueError):
            class_group(D)


def test_group_axioms():
    for D in (5, 13, 21, 40, 60, 104, 136):
        G = class_group(D)
        h = G.h_plus
        e = G.identity
        for i in range(h):
            assert 0 <= G.op(i, e) < h
            assert G.op(i, e) == i and G.op(e, i) == i
            assert G.op(i, G.inv(i)) == e
            for j in range(h):
                assert G.op(i, j) == G.op(j, i)
        # order_of divides h and the exponent
        for i in range(h):
            o = G.order_of(i)
            assert h % o == 0
            assert G.exponent % o == 0
            assert G.power(i, o) == e
            assert G.power(i, -1) == G.inv(i)


def test_reduce_form_idempotent_and_sl2_invariant():
    for D in (8, 40, 136, 5, 21, 60):
        G = class_group(D)
        for f in G.forms:
            assert reduce_form(f) == f
            # translation (a, b, c) -> (a, b+2a, a+b+c) preserves the class
            t = Form(f.a, f.b + 2 * f.a, f.a + f.b + f.c)
            assert t.disc() == D
            assert reduce_form(t) == f
            # as does the flip (a, b, c) -> (c, -b, a)
            assert reduce_form(Form(f.c, -f.b, f.a)) == f


def test_composition_matches_table():
    for D in (40, 136, 60, 104):
        G = class_group(D)
        for i, f in enumerate(G.forms):
            for j, g in enumerate(G.forms):
                assert G.index_of(compose(f, g)) == G.op(i, j)


def test_sign_class_tracks_unit_norm():
    for d in FIELDS:
        fd = field_data(d)
        G = class_group(fd.D)
        o = G.order_of(sign_class(G))
        assert o == (1 if fd.norm_eps0 == -1 else 2)


def test_frobenius_translation_choice_is_immaterial():
    for D in (40, 136, 60):
        G = class_group(D)
        for p in (2, 3, 5, 7, 11, 13, 17):
            if kronecker(D, p) == -1:
                continue
            got = frobenius_class(G, p)
            for b in range(2 * p):
                if (b * b - D) % (4 * p) != 0:
                    continue
                f = Form(p, b + 2 * p, ((b + 2 * p) ** 2 - D) // (4 * p))
                if f.is_primitive():
                    assert G.index_of(f) == got
                    break


def _frobenius_class_scan(G, p):
    # O(p) reference: the smallest b in [0, 2p) giving a primitive form
    # (p, b, *), found by trying every b
    for b in range(2 * p):
        if (b * b - G.D) % (4 * p) == 0:
            f = Form(p, b, (b * b - G.D) // (4 * p))
            if f.is_primitive():
                return G.index_of(f)
    raise AssertionError(f"no prime form above {p}")


def test_frobenius_class_matches_residue_scan():
    for D in (136, 53832, 1324, 5):
        G = class_group(D)
        for p in range(2, 2000):
            if is_prime(p) and kronecker(D, p) != -1:
                assert frobenius_class(G, p) == _frobenius_class_scan(G, p), (D, p)


def test_frobenius_rejects_inert():
    G = class_group(136)
    assert kronecker(136, 7) == -1
    with pytest.raises(ValueError):
        frobenius_class(G, 7)


def test_frozen_frobenius_orders_d34():
    G = class_group(136)
    assert G.order_of(frobenius_class(G, 2)) == 1
    assert G.order_of(frobenius_class(G, 17)) == 2
    assert G.order_of(frobenius_class(G, 3)) == 4
    assert G.order_of(frobenius_class(G, 5)) == 4
    assert G.order_of(sign_class(G)) == 2


def test_d34_group_is_cyclic_of_order_four():
    G = class_group(136)
    assert len(G.decomposition) == 1
    assert G.decomposition[0][1] == 4
    assert G.exponent == 4


def test_characters_count_and_orthogonality():
    for D in (8, 40, 136, 60, 104):
        G = class_group(D)
        chars = characters(G)
        assert len(chars) == G.h_plus
        assert sum(1 for c in chars if c.is_trivial()) == 1
        n = G.exponent
        for chi in chars:
            total = chi.value(0) - chi.value(0)  # zero of Z[x]/(x^n - 1)
            for i in range(G.h_plus):
                total = total + chi.value(i)
            if chi.is_trivial():
                assert total.as_int() == G.h_plus
            else:
                assert total.as_int() == 0
            assert n % chi.value_order() == 0


def test_characters_are_homomorphisms():
    for D in (40, 136, 104):
        G = class_group(D)
        n = G.exponent
        for chi in characters(G):
            for i in range(G.h_plus):
                for j in range(G.h_plus):
                    lhs = chi.exponent(G.op(i, j))
                    rhs = (chi.exponent(i) + chi.exponent(j)) % n
                    assert lhs == rhs
