"""Test oracle: narrow class groups by the direct reduced-form census.

The library enumerates reduced forms over the divisors of (D - b^2)/4, fills
the composition table by looking reduced products up in a map from every
reduced form to its class, and checks associativity with Light's test on a
generating set.  This module does each step the plain way: it tries every
|a| in 1..(D - b^2)/4, composes with the public compose and reduce_form
(which walk each cycle to its canonical form), and checks every triple.  It
costs O(D^1.5) for the census and O(h^3) for the check, which limits it to
small D.
"""

from __future__ import annotations

import math

from normcensus.arith import InvariantError
from normcensus.classgroup import Form, _decompose, compose, reduce_form


def all_reduced_forms_scan(D: int) -> list[Form]:
    """Every primitive reduced form of discriminant D, trying each |a|."""
    s = math.isqrt(D)
    out = []
    for b in range(1, s + 1):
        if (D - b) % 2:
            continue
        M4 = D - b * b
        if M4 <= 0 or M4 % 4:
            continue
        M = M4 // 4
        for a_abs in range(1, M + 1):
            if M % a_abs:
                continue
            # window sqrt(D)-b < 2|a| < sqrt(D)+b
            t = 2 * a_abs
            if t - b >= 0 and (t - b) ** 2 >= D:
                continue
            if (t + b) ** 2 <= D:
                continue
            for a in (a_abs, -a_abs):
                f = Form(a, b, -M // a)
                if f.is_primitive():
                    out.append(f)
    return out


def check_associative_triples(table, h: int, D: int) -> None:
    """Raise InvariantError unless (i j) k = i (j k) for every triple."""
    for i in range(h):
        for j in range(h):
            for k in range(h):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise InvariantError(f"composition is not associative at {i}, {j}, {k}, D={D}")


def reference_group(D: int):
    """(forms, table, identity, decomposition) from the scan and the public
    compose and reduce_form; the table is checked on every triple."""
    forms = tuple(sorted({reduce_form(f) for f in all_reduced_forms_scan(D)}))
    index = {f: i for i, f in enumerate(forms)}
    h = len(forms)
    table = tuple(tuple(index[compose(f, g)] for g in forms) for f in forms)
    if D % 4 == 0:
        principal = Form(1, 0, -D // 4)
    else:
        principal = Form(1, 1, (1 - D) // 4)
    identity = index[reduce_form(principal)]
    check_associative_triples(table, h, D)
    return forms, table, identity, tuple(_decompose(table, identity, h))
