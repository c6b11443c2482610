"""The four workloads: how each round of commands is drawn from the seed, and
the check every output must pass.

A run repeats rounds until its time is up (see run.py).  Round r of a
workload is drawn from random.Random(f"{name}:{seed}:{r}") and always has
the same make-up: the part of the inputs that sets the cost (the chunk
tiling, the strata, the field sample, the modulus ladder) is fixed, and the
seed draws the rest, so that the spread of costs, and with it every
percentile, is the same from run to run.  Commands that share a field form a
group; the library's caches are cleared before each group, so a group costs
what it costs in a fresh `normcensus` process, less the import.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles as O


@dataclass
class Op:
    argv: list[str]
    check: Callable[[dict], str | None]  # an error message, or None when right
    items: Callable[[dict], int] = lambda report: 1
    group_start: bool = True  # clear the library's caches before this command
    known_fault: bool = False  # fails because of a documented program fault


def _solve_error(d: int, m: int, report: dict, expect: bool, oracle: str) -> str | None:
    if report["solvable"] != expect:
        return f"solvable={report['solvable']}, {oracle} says {expect}"
    w = report["witness"]
    if expect:
        if w is None or O.norm(d, int(w[0]), int(w[1])) != m:
            return f"witness {w} does not have norm {m}"
    elif w is not None:
        return f"witness {w} given for an unsolvable equation"
    return None


def _yscan_solve(d: int, m: int, eps: float, **kwargs) -> Op:
    """solve d m, checked against the benchmark's own y-scan."""
    return Op(["solve", str(d), str(m)],
              lambda report: _solve_error(d, m, report, O.yscan_solvable(d, m, eps), "the y-scan"), **kwargs)


# --- census-d34 --------------------------------------------------------------

class CensusD34:
    """census 34 over consecutive chunks of m, |m| <= SPAN, with counts at
    T = 10^2 and 10^100.  The chunks tile the range; the seed shifts the
    tiling and orders each round.  Round r takes every STRIDE-th chunk, so
    STRIDE rounds cover the range once."""

    name = "census-d34"
    why = "the paper's running example: verdict, orbits, calibration and orbit walks to 10^100 per row, through the thread pool"
    SPAN, CHUNK, STRIDE = 3000, 25, 8
    T_SMALL = 100

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        first = -self.SPAN - rng.randrange(self.CHUNK)
        self.starts = list(range(first, self.SPAN + 1, self.CHUNK))
        self.seed = seed
        self.eps = 35 + 6 * math.sqrt(34)
        t = self.T_SMALL
        self.small_counts = Counter(x * x - 34 * y * y for x in range(-t, t + 1) for y in range(-t, t + 1))
        self.solvable: dict[int, bool] = {}
        self.calibration: float | None = None

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        # every STRIDE-th chunk, so that each round spans the whole range
        chunks = self.starts[r % self.STRIDE::self.STRIDE]
        rng.shuffle(chunks)
        return [self._op(lo, lo + self.CHUNK - 1) for lo in chunks]

    def _op(self, lo: int, hi: int) -> Op:
        def check(report: dict) -> str | None:
            ms = [row["m"] for row in report["rows"]]
            if ms != [m for m in range(lo, hi + 1) if m != 0]:
                return "rows do not cover the requested range"
            for row in report["rows"]:
                err = self._row_error(row)
                if err:
                    return f"m={row['m']}: {err}"
            return None

        return Op(["census", "34", f"--m-range={lo}..{hi}", "--T-exponents", "2,100"], check,
                  items=lambda report: len(report["rows"]))

    def _row_error(self, row: dict) -> str | None:
        m = row["m"]
        if m not in self.solvable:
            self.solvable[m] = O.yscan_solvable(34, m, self.eps)
        if row["solvable"] != self.solvable[m]:
            return f"solvable={row['solvable']}, the y-scan says {self.solvable[m]}"
        c2, c100 = int(row["counts"]["2"]), int(row["counts"]["100"])
        if c2 != self.small_counts[m]:
            return f"count at T=10^2 is {c2}, the direct scan finds {self.small_counts[m]}"
        if c100 % 2 or (c100 > 0) != row["solvable"]:
            return f"count at T=10^100 is {c100}"
        # A solution's height is within |m|/S of S/2, S the larger of its two
        # conjugates, so an orbit z*eps^n counts the n with
        # |n log(eps) + c| <= log(2T) - log|m|/2: within 1 of
        # 2 (log(2T) - log|m|/2) / log(eps) = (slope / orbits) (log(2T) - log|m|/2).
        # (The slope times log(T) alone is off by more than 2 per orbit once
        # |m| exceeds a few hundred.)
        expect = row["exact_slope"] * (math.log(2) + 100 * math.log(10) - 0.5 * math.log(abs(m)))
        if abs(c100 - expect) > row["orbit_count"] + 1e-6:
            return f"count at T=10^100 is {c100}, more than 1 per orbit off {expect:.3f}"
        cal = row["calibration"]
        if cal is not None:
            if self.calibration is None:
                self.calibration = cal
            elif abs(cal - self.calibration) > 1e-9 * self.calibration:
                return f"calibration {cal} differs from {self.calibration} of another row"
        return None


# --- wide-unit ---------------------------------------------------------------

class WideUnit:
    """solve d m for |m| < sqrt(d) on the 27 fields with d = 2, 3 mod 4,
    d < 1200 and log10(eps) in [11, 13.5].  Each round: one solvable equation
    from each of SOLVABLE_STRATA strata by y-scan length sqrt(|m| eps / d),
    and UNSOLVABLE_PER_FIELD unsolvable ones per field, so the solvable ones,
    whose witness search costs 10-100 times more, are a quarter of the
    commands and both percentiles fall inside one kind."""

    name = "wide-unit"
    why = "large regulators: the O(sqrt(|m| eps / d)) y-scan for the witness dominates, class groups are tiny"
    SOLVABLE_STRATA, UNSOLVABLE_PER_FIELD = 27, 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        solvable, self.unsolvable = [], {}
        for d in range(2, 1200):
            if d % 4 not in (2, 3) or not O.is_squarefree(d):
                continue
            log_eps = O.log_unit_cf(d)
            if not 11 <= log_eps / math.log(10) <= 13.5:
                continue
            values = O.lagrange_values(d)
            s = math.isqrt(d)
            for m in range(-s, s + 1):
                if m == 0:
                    continue
                if O.lagrange_solvable(d, m, values):
                    solvable.append((0.5 * (math.log(abs(m)) + log_eps - math.log(d)), d, m))
                else:
                    self.unsolvable.setdefault(d, []).append(m)
        if len(self.unsolvable) != 27:
            raise RuntimeError(f"expected 27 wide-unit fields, found {len(self.unsolvable)}")
        solvable.sort()
        n, k = len(solvable), self.SOLVABLE_STRATA
        self.strata = [solvable[i * n // k:(i + 1) * n // k] for i in range(k)]

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        picks = [rng.choice(s)[1:] + (True,) for s in self.strata]
        for d, ms in sorted(self.unsolvable.items()):
            picks += [(d, m, False) for m in rng.sample(ms, self.UNSOLVABLE_PER_FIELD)]
        rng.shuffle(picks)
        return [self._op(d, m, sol) for d, m, sol in picks]

    @staticmethod
    def _op(d: int, m: int, solvable: bool) -> Op:
        return Op(["solve", str(d), str(m)],
                  lambda report: _solve_error(d, m, report, solvable, "Lagrange's criterion"))


# --- class-groups ------------------------------------------------------------

def _family(lo: int, hi: int) -> list[tuple[int, int, int]]:
    """Richaud-Degert fields d = k^2 + r, r in (1, 2, -2, 4), with lo <= D <= hi,
    as (d, k, r)."""
    out = []
    k = 2
    while k * k - 2 <= hi:
        for r in (1, 2, -2, 4):
            d = k * k + r
            if d > 5 and O.is_squarefree(d) and lo <= O.discriminant(d) <= hi:
                out.append((d, k, r))
        k += 1
    return out


def _class_group_cost(d: int, k: int, r: int) -> float:
    # reduced-form enumeration grows like D^1.5, the composition table like
    # h^2 and the associativity check like h^3; h from a truncated Euler
    # product.  Coefficients fitted to timings of the whole family.
    D = O.discriminant(d)
    L = 1.0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
        L /= 1 - O.kronecker(D, p) / p
    h = math.sqrt(D) * L / math.log(O.norm_one_unit_float(*O.degert_unit(d, k, r), d))
    return 0.51e-8 * D**1.5 + 1.28e-4 * h * h + 0.186e-6 * h**3


class ClassGroups:
    """unit d, then one solve d m per entry of PRIMES_PER_M, on Richaud-Degert fields
    with 5e4 <= D <= 3e5, whose units are tiny, so the y-scans vanish.

    The class-group builds dominate the time and their cost varies tenfold
    between fields, so the fields are a fixed sample of the family: FIELDS of
    them at evenly spaced quantiles of predicted cost, all in every round.
    The seed draws the equations and the order.

    The sample keeps to narrow class groups of 2-rank at most 1 (D has at
    most two prime factors), where the generator decomposition of normcensus
    is sound.  On fields of higher 2-rank it often is not (see CHANGES.md),
    and which equations then fail depends on m, so the fault is exercised by
    one fixed group on d = 13458 in every round, whose failing commands are
    the same each time.
    """

    name = "class-groups"
    why = "reduced-form enumeration, composition table, associativity check and the cyclotomic character sum, with h+ up to ~150"
    D_LO, D_HI = 50_000, 300_000
    FIELDS, PRIMES_PER_M = 16, (1, 2, 2, 3)  # one solve per entry
    ANCHOR_D, ANCHOR_K, ANCHOR_R = 13458, 116, 2
    # solve 13458 -392 reports false although (-1624, -14) is a solution, and
    # solve 13458 -329 exits 3; 49 (solvable) and 21 (not) come out right.
    ANCHOR_MS = (-392, -329, 49, 21)
    ANCHOR_FAULTS = frozenset({-392, -329})

    def __init__(self, seed: int) -> None:
        self.seed = seed
        family = [f for f in _family(self.D_LO, self.D_HI) if len(O.prime_factors(O.discriminant(f[0]))) <= 2]
        family.sort(key=lambda f: _class_group_cost(*f))
        n = len(family)
        self.fields = [family[(2 * i + 1) * n // (2 * self.FIELDS)] for i in range(self.FIELDS)]
        self.hlog: dict[int, float] = {}

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        groups = [self._group(self.ANCHOR_D, self.ANCHOR_K, self.ANCHOR_R, self.ANCHOR_MS, self.ANCHOR_FAULTS)]
        for d, k, rr in self.fields:
            groups.append(self._group(d, k, rr, self._draw_ms(rng, O.discriminant(d))))
        rng.shuffle(groups)
        return [op for g in groups for op in g]

    def _draw_ms(self, rng: random.Random, D: int) -> list[int]:
        # the number of primes in each m is fixed, so the character sums
        # cost the same mix in every round
        split = [p for p in range(3, 200) if O.is_prime(p) and O.kronecker(D, p) == 1][:10]
        out = []
        for n_primes in self.PRIMES_PER_M:
            m = rng.choice((1, -1))
            for p in rng.sample(split, n_primes):
                m *= p ** rng.randint(1, 2)
            out.append(m)
        return out

    def _group(self, d: int, k: int, r: int, ms, faults=frozenset()) -> list[Op]:
        u, v, den, n = O.degert_unit(d, k, r)
        eps = O.norm_one_unit_float(u, v, den, n, d)
        D = O.discriminant(d)

        def check_unit(report: dict) -> str | None:
            got = O.reduce_unit(*O.parse_quad(report["eps0"]))
            a, b, g = got
            if report["D"] != D or got != (u, v, den):
                return f"eps0 {report['eps0']} is not Degert's ({u}+{v}*sqrt({d}))/{den}"
            if report["eps0_norm"] != n or (a * a - d * b * b) != n * g * g:
                return f"eps0 has norm {report['eps0_norm']}, not {n}"
            h, cyc = report["h_plus"], report["cyclic_structure"]
            if math.prod(cyc) != h or sum(1 for c in cyc if c % 2 == 0) != O.two_rank(D):
                return f"structure {cyc} does not fit h+={h} and 2-rank {O.two_rank(D)}"
            if d not in self.hlog:
                self.hlog[d] = O.hplus_log_eps(D)
            if abs(h * math.log(eps) - self.hlog[d]) > 1e-7 * self.hlog[d]:
                return f"h+ log eps = {h * math.log(eps)}, the class number formula gives {self.hlog[d]}"
            return None

        return [Op(["unit", str(d)], check_unit)] + [
            _yscan_solve(d, m, eps, group_start=False, known_fault=m in faults) for m in ms
        ]


# --- local-density -----------------------------------------------------------

class LocalDensity:
    """density d m p k over a fixed ladder of moduli p^k up to ~2e6, and solve
    on small-unit fields with m carrying a power of 2, which drives the 2-adic
    residue search.  The ladder fixes every command's cost and the peak
    memory; the seed draws d and m for each rung."""

    name = "local-density"
    why = "p-adic residue scans in localdata: density tables up to 2e6 residues and the 2-adic solvability search"
    # (kind, p, k): "unram" p does not divide D (closed form), "ramified" p | D
    # (direct count, so kept small).
    DENSITY_LADDER = (
        ("unram", 3, 13), ("unram", 5, 9), ("unram", 11, 6), ("unram", 7, 7), ("unram", 13, 5),
        ("unram", 3, 11), ("unram", 17, 4), ("unram", 29, 3), ("unram", 5, 6), ("unram", 7, 4),
        ("unram", 11, 3), ("unram", 3, 6), ("unram", 19, 2), ("unram", 23, 1),
        ("unram", 2, 12), ("unram", 2, 11), ("unram", 2, 9), ("unram", 2, 6),
        ("ramified", 3, 7), ("ramified", 5, 4), ("ramified", 7, 3), ("ramified", 2, 11),
    )
    # (d mod 4, v_2(m)): the search covers 2^K residues, K = v_2(4dm) + 3, up
    # to K = 21, well inside the program's budget.
    SOLVE_LADDER = ((3, 16), (2, 13), (1, 10), (3, 8), (2, 5))

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.fields = [d for d in range(2, 200) if O.is_squarefree(d)]
        units = {d: O.smallest_unit(d, v_max=100) for d in self.fields if d < 100}
        self.small_unit = {d: O.norm_one_unit_float(*u, d) for d, u in units.items() if u}

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        ops = [self._density(rng, *rung) for rung in self.DENSITY_LADDER]
        ops += [self._solve(rng, *rung) for rung in self.SOLVE_LADDER]
        rng.shuffle(ops)
        return ops

    def _density(self, rng: random.Random, kind: str, p: int, k: int) -> Op:
        if p == 2 and kind == "unram":
            ds = [d for d in self.fields if d % 4 == 1]
        elif p == 2:
            ds = [d for d in self.fields if d % 4 != 1]
        else:
            ds = [d for d in self.fields if (d % p == 0) == (kind == "ramified")]
        d = rng.choice(ds)
        u = rng.choice([u for u in range(1, 300) if u % p])
        m = rng.choice((1, -1)) * u * p ** rng.randint(0, min(k - 1, 2))
        expect = O.closed_form_density(d, m, p, k) if kind == "unram" else O.direct_density(d, m, p, k)

        def check(report: dict) -> str | None:
            got = Fraction(report["density"])
            return None if got == expect else f"density {got}, expected {expect}"

        return Op(["density", str(d), str(m), str(p), str(k)], check)

    def _solve(self, rng: random.Random, residue: int, v2: int) -> Op:
        d = rng.choice([d for d in self.small_unit if d % 4 == residue])
        m = rng.choice((1, -1)) * rng.randrange(1, 50, 2) * 2**v2
        return _yscan_solve(d, m, self.small_unit[d])


WORKLOADS = {w.name: w for w in (CensusD34, WideUnit, ClassGroups, LocalDensity)}
