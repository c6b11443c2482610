"""Exact point counts at astronomical heights.

Solutions fall into finitely many orbits under the norm-one unit, so the
count up to height T is a staircase in log T whose slope is
2 * orbit_count / log eps.  The orbit walk needs only big-integer
arithmetic, so T = 10^100 costs nothing.  Comparing the exact slope with
the predicted one calibrates the census normalization: the ratio is the
same for every solvable m of a given field.

Run:  python demos/03_orbit_staircase.py
"""

import math

from normcensus.census import equation_spec, verdict

orbits = verdict(equation_spec(34, 33)).orbits
print(f"d=34, m=33: {orbits.orbit_count} orbits, representatives:")
for z in orbits.representatives:
    print(f"  {z}")

print("\n== the staircase ==")
print("        T   count   count/ln T   exact slope")
slope = orbits.slope
for k in (1, 2, 4, 10, 25, 50, 100):
    T = 10**k
    n = orbits.count(T)
    print(f"  10^{k:<4d} {n:7d}   {n / math.log(T):10.6f}   {slope:.6f}")

print("\n== calibration across m ==")
print("  m   exact     predicted  ratio")
for m in (1, 2, 9, 33, -33, 47):
    v = verdict(equation_spec(34, m))
    if v.calibration is None:
        continue
    print(f"{m:4d}  {v.orbits.slope:.6f}  {v.predicted_slope:.6f}   {v.calibration:.6f}")
print(f"(2 * sqrt(136) = {2 * math.sqrt(136):.6f})")
