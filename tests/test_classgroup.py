import dataclasses
import math
import random

import pytest

from charsum_oracle import characters
from normcensus.arith import InvariantError, factorize, is_prime, kronecker
from normcensus.classgroup import (
    Form,
    _all_reduced_forms,
    _check_associative,
    class_group,
    compose,
    frobenius_class,
    reduce_form,
    sign_class,
)
from normcensus.quadfield import field_data
from reduced_forms_oracle import all_reduced_forms_scan, check_associative_triples, reference_group

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


def _fundamental_discriminants(limit):
    for d in range(2, limit + 1):
        D = d if d % 4 == 1 else 4 * d
        if D <= limit and all(e == 1 for _, e in factorize(d).factors):
            yield D


def test_divisor_enumeration_matches_scan():
    Ds = [*_fundamental_discriminants(5000), 53832, 166456]
    assert len(Ds) == 1516 + 2  # fundamental D <= 5000, counted by _validate_disc
    for D in Ds:
        assert sorted(_all_reduced_forms(D)) == sorted(all_reduced_forms_scan(D)), D


def test_table_matches_public_compose_reference():
    # D = 53832 is Z/14 x Z/2 and D = 166456 (d = 41614) has h+ = 78
    for D in (5, 8, 136, 1324, 53832, 166456):
        G = class_group(D)
        forms, table, identity, decomposition = reference_group(D)
        assert G.forms == forms
        assert G.table == table
        assert G.identity == identity
        assert G.decomposition == decomposition
        assert G.h_plus == len(forms)
    assert class_group(166456).h_plus == 78


def test_light_test_agrees_with_triple_loop():
    rng = random.Random(6)
    tables = []
    for D in (136, 1324, 53832):
        table = class_group(D).table
        tables.append(table)
        h = len(table)
        for _ in range(20):
            rows = [list(r) for r in table]
            rows[rng.randrange(h)][rng.randrange(h)] = rng.randrange(h)
            tables.append(tuple(map(tuple, rows)))
    for h in (1, 5, 12):
        tables.append(tuple(tuple(0 for j in range(h)) for i in range(h)))  # zero semigroup
        tables.append(tuple(tuple(i for j in range(h)) for i in range(h)))  # left zero
        tables.append(tuple(tuple((i - j) % h for j in range(h)) for i in range(h)))
        tables.append(tuple(tuple(rng.randrange(h) for j in range(h)) for i in range(h)))
    outcomes = set()
    for table in tables:
        h = len(table)
        try:
            check_associative_triples(table, h, 0)
            expected = True
        except InvariantError:
            expected = False
        try:
            _check_associative(table, h, 0)
            got = True
        except InvariantError as exc:
            assert "composition is not associative at" in str(exc)
            got = False
        assert got == expected, table
        outcomes.add(got)
    assert outcomes == {True, False}


def test_group_lookup_behaviour_unchanged():
    G = class_group(53832)
    with pytest.raises(ValueError):
        G.index_of(Form(1, 0, -34))  # discriminant 136
    f = G.forms[3]
    with pytest.raises(ValueError):
        G.index_of(Form(2 * f.a, 2 * f.b, 2 * f.c))  # not primitive
    for i in range(G.h_plus):
        assert G.inv(i) == G.power(i, -1) == G.power(i, G.order_of(i) - 1)
        assert G.op(i, G.inv(i)) == G.identity
    assert "_class_of" not in repr(G)
    class_group.cache_clear()
    H = class_group(53832)
    assert H is not G and H == G and hash(H) == hash(G)
    # a group built by hand finds the same classes
    K = dataclasses.replace(G)
    assert K == G and hash(K) == hash(G)
    for i, f in enumerate(G.forms):
        t = Form(f.a, f.b + 2 * f.a, f.a + f.b + f.c)
        assert K.index_of(t) == G.index_of(t) == i


def test_prime_class_memo_stays_out_of_identity():
    # frobenius_class and sign_class store their answers on the group, not
    # in its fields, and a rebuilt group starts with an empty memo
    class_group.cache_clear()
    G = class_group(53832)
    before = (repr(G), hash(G))
    want = {p: frobenius_class(G, p) for p in (2, 3, 7, 13, 23)}
    want[-1] = sign_class(G)
    assert G._prime_classes == want
    assert (repr(G), hash(G)) == before and "_prime_classes" not in repr(G)
    assert {p: frobenius_class(G, p) for p in (2, 3, 7, 13, 23)} == {p: want[p] for p in (2, 3, 7, 13, 23)}
    assert sign_class(G) == want[-1]
    class_group.cache_clear()
    H = class_group(53832)
    assert H == G and hash(H) == hash(G) and H._prime_classes == {}
    for p in (1, 0, -1):
        with pytest.raises(ValueError):
            frobenius_class(H, p)
    with pytest.raises(ValueError):
        frobenius_class(H, 5)  # inert
    assert H._prime_classes == {}
