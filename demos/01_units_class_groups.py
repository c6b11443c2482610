"""Tour of the field-level invariants: fundamental units, narrow class
groups, and the prime classes that drive the solvability criterion.

Run:  python demos/01_units_class_groups.py
"""

from itertools import product

from normcensus.census import c_m, equation_spec
from normcensus.classgroup import class_group, frobenius_class, sign_class
from normcensus.quadfield import field_data

print("== fundamental units ==")
for d in (2, 3, 5, 10, 13, 34):
    f = field_data(d)
    print(
        f"d={d:3d}  D={f.D:4d}  eps0={str(f.eps0):>16s}  N(eps0)={f.norm_eps0:+d}"
        f"  eps={str(f.eps):>16s}  log eps={f.log_eps:.6f}"
    )

# The narrow class group keeps totally-positive principal ideals separate
# from the rest, so it sees the sign obstruction that the ordinary class
# group forgets.
print("\n== narrow class groups ==")
for d in (2, 10, 15, 34):
    f = field_data(d)
    G = class_group(f.D)
    shape = " x ".join(f"Z/{o}" for _, o in G.decomposition) or "trivial"
    print(f"d={d:3d}  h+={G.h_plus}  structure: {shape}")
    print(f"        representative forms: {', '.join(str(g) for g in G.forms)}")

print("\n== prime classes for d = 34 ==")
G = class_group(136)
print(f"sign class order: {G.order_of(sign_class(G))}")
for p in (2, 3, 5, 11, 17, 29):
    idx = frobenius_class(G, p)
    print(f"sigma_{p}: class {G.forms[idx]}, order {G.order_of(idx)}")

# c_m counts ideals per narrow class.  33 = 3 * 11 with both primes split,
# so the ideals of norm 33 are P3 * P11 with either prime above 3 and either
# above 11: classes sigma_3^(+-1) * sigma_11^(+-1).  For m > 0 the count in
# the identity class, times h+, is c_m.
print("\n== ideals of norm 33 by narrow class (d = 34) ==")
s3, s11 = frobenius_class(G, 3), frobenius_class(G, 11)
counts = {i: 0 for i in range(G.h_plus)}
for a, b in product((1, -1), repeat=2):
    counts[G.op(G.power(s3, a), G.power(s11, b))] += 1
for i, k in counts.items():
    tag = "  <- identity" if i == G.identity else ""
    print(f"class {G.forms[i]}: {k} ideal(s){tag}")
k = counts[G.identity]
print(f"h+ * count = {G.h_plus} * {k} = {G.h_plus * k} = c_m = {c_m(equation_spec(34, 33))}")
