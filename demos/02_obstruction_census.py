"""The solvability census for x^2 - 34 y^2 = m.

Local solvability at every prime is necessary but not sufficient: a
character sum c_m over the narrow class group must also be nonzero.  The
script walks the famous failures m = -1, -2 (solvable in every Z_p and in
R, yet insolvable in Z) and lists each verdict beside the number of unit
orbits of solutions it found (nonzero exactly when solvable).  The closed
form that d = 34 also admits is an oracle in tests/pell34_oracle.py.

Run:  python demos/02_obstruction_census.py
"""

from normcensus.census import equation_spec, verdict

print("== the m = -1 and m = -2 obstructions ==")
for m in (-1, -2):
    v = verdict(equation_spec(34, m))
    local = ", ".join(f"p={p}: {'ok' if ok else 'fail'}" for p, ok in sorted(v.locally_solvable.items()))
    print(f"m={m}: local [{local}]  c_m={v.c_m}  solvable={v.solvable}")

print("\n== a census strip ==")
print(" m   c_m  solvable  orbits  witness")
for m in range(-12, 13):
    if m == 0:
        continue
    v = verdict(equation_spec(34, m))
    w = f"({v.witness[0]},{v.witness[1]})" if v.witness else "-"
    print(f"{m:3d}  {v.c_m:3d}  {str(v.solvable):8s}  {v.orbits.orbit_count:6d}  {w}")
