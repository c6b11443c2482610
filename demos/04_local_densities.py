"""Local data: p-adic solvability, stabilizing densities, and the
archimedean volume of the height-bounded hyperbola.

Run:  python demos/04_local_densities.py
"""

import math

from normcensus.census import equation_spec
from normcensus.localdata import arch_volume_hyperbola, lemvol_coefficient, local_density, locally_solvable

spec = equation_spec(34, 1)

print("== densities stabilize as the modulus deepens ==")
for p in (3, 5, 7):
    row = [str(local_density(spec, p, k)) for k in range(1, 6)]
    tag = "split" if p in (3, 5) else "inert"
    print(f"p={p} ({tag}): " + "  ".join(row))

print("\n== solvability at the bad primes ==")
for m in (1, -1, 7, 17, 33):
    s = equation_spec(34, m)
    report = {p: locally_solvable(s, p) for p in (2, 3, 7, 17)}
    print(f"m={m:3d}: " + "  ".join(f"Z_{p}:{'yes' if ok else 'no'}" for p, ok in report.items()))

# The real locus contributes (4/D) log T plus an m-dependent constant
# (tests/test_localdata.py checks the closed form against quadrature).
print("\n== archimedean volume ==")
for T in (1e3, 1e6, 1e8):
    closed = arch_volume_hyperbola(spec, T)
    print(
        f"T=1e{int(math.log10(T))}: closed={closed:.8f}"
        f"  /((4/D)lnT)={closed / ((4 / 136) * math.log(T)):.6f}"
    )

print("\n== leading volume coefficients by signature ==")
for n, r, s in [(2, 2, 0), (3, 3, 0), (3, 1, 1), (4, 0, 2), (2, 0, 2)]:
    print(f"n={n}, r={r}, s={s}: {lemvol_coefficient(n, r, s, 1.0):.6f} / |N(Delta)|")
