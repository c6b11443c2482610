"""Command-line interface: unit/class-group reports, solvability verdicts,
census tables, exact counts, local densities, and c_n(a) values.

Output is JSON by default (deterministic field order, big integers as decimal
strings, rationals as "num/den") or TSV with --tsv.  Exit codes: 0 success,
2 invalid input, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import Any

from .census import equation_spec, verdict
from .classgroup import class_group
from .counting import fundamental_solutions
from .hassewitt import c_n_a
from .localdata import local_density
from .quadfield import field_data


def _num(x: Any) -> Any:
    # ints above the float53 window and rationals go out as strings
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return x if abs(x) < 2**53 else str(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def _emit(report: dict[str, Any], args: argparse.Namespace) -> None:
    if args.tsv:
        lines = []
        if "rows" in report:
            cols = list(report["rows"][0].keys()) if report["rows"] else []
            lines.append("\t".join(cols))
            for row in report["rows"]:
                lines.append("\t".join(str(_num(row[c])) for c in cols))
            for key, val in report.items():
                if key != "rows":
                    lines.append(f"# {key}\t{_json_str(val)}")
        else:
            for key, val in report.items():
                lines.append(f"{key}\t{_json_str(val)}")
        text = "\n".join(lines) + "\n"
    else:
        text = _json_str(report) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_default(x: Any) -> Any:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    raise TypeError(f"not serializable: {type(x)}")


def _walk(x: Any) -> Any:
    if isinstance(x, dict):
        return {k: _walk(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_walk(v) for v in x]
    return _num(x)


def _json_str(x: Any) -> str:
    return json.dumps(_walk(x), default=_json_default)


def _threads() -> None:
    # census runs serially; NORMCENSUS_THREADS is only validated, so a bad
    # value still exits 2 and every valid one gives the same output
    raw = os.environ.get("NORMCENSUS_THREADS")
    if raw is None:
        return
    try:
        k = int(raw)
    except ValueError:
        raise ValueError(f"NORMCENSUS_THREADS must be a positive integer, got {raw!r}")
    if k < 1:
        raise ValueError("NORMCENSUS_THREADS must be >= 1")


def _cmd_unit(args: argparse.Namespace) -> dict[str, Any]:
    fd = field_data(args.d)
    G = class_group(fd.D)
    return {
        "d": fd.d,
        "D": fd.D,
        "eps0": str(fd.eps0),
        "eps0_norm": fd.norm_eps0,
        "eps": str(fd.eps),
        "log_eps": fd.log_eps,
        "h_plus": G.h_plus,
        "cyclic_structure": [order for _, order in G.decomposition],
    }


def _solve_report(d: int, m: int) -> dict[str, Any]:
    v = verdict(equation_spec(d, m))
    return {
        "d": d,
        "m": m,
        "locally_solvable": all(v.locally_solvable.values()),
        "local": {str(p): ok for p, ok in sorted(v.locally_solvable.items())},
        "c_m": v.c_m,
        "solvable": v.solvable,
        "witness": list(v.witness) if v.witness is not None else None,
        "predicted_slope": v.predicted_slope,
    }


def _cmd_solve(args: argparse.Namespace) -> dict[str, Any]:
    return _solve_report(args.d, args.m)


def _census_row(d: int, m: int, exponents: list[int]) -> dict[str, Any]:
    v = verdict(equation_spec(d, m))
    row: dict[str, Any] = {
        "m": m,
        "solvable": v.solvable,
        "c_m": v.c_m,
        "orbit_count": v.orbits.orbit_count,
        "exact_slope": v.orbits.slope,
        "predicted_slope": v.predicted_slope,
        "calibration": v.calibration,
    }
    if exponents:
        row["counts"] = {str(k): v.orbits.count(10**k) for k in exponents}
    return row


def _cmd_census(args: argparse.Namespace) -> dict[str, Any]:
    match = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", args.m_range)
    if match is None:
        raise ValueError(f"--m-range must look like A..B, got {args.m_range!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    ms = [m for m in range(lo, hi + 1) if m != 0]
    if not ms:
        raise ValueError(f"m range {args.m_range} is empty")
    if args.T_exponents is not None and not re.fullmatch(r"\d+(,\d+)*", args.T_exponents):
        raise ValueError(f"--T-exponents must be nonnegative integers k1,k2,..., got {args.T_exponents!r}")
    exponents = [int(k) for k in args.T_exponents.split(",")] if args.T_exponents else []
    _threads()
    rows = [_census_row(args.d, m, exponents) for m in ms]
    cals = [r["calibration"] for r in rows if r["calibration"] is not None]
    summary: dict[str, Any] = {"rows": len(rows), "solvable": sum(r["solvable"] for r in rows)}
    if cals:
        mean = sum(cals) / len(cals)
        summary["calibration_mean"] = mean
        summary["calibration_rel_spread"] = (max(cals) - min(cals)) / mean
    return {"d": args.d, "m_range": [lo, hi], "rows": rows, "summary": summary}


def _cmd_count(args: argparse.Namespace) -> dict[str, Any]:
    spec = equation_spec(args.d, args.m)
    T = int(args.T)
    count = fundamental_solutions(spec).count(T)
    return {"d": args.d, "m": args.m, "T": T, "count": count}


def _cmd_density(args: argparse.Namespace) -> dict[str, Any]:
    spec = equation_spec(args.d, args.m)
    dens = local_density(spec, args.p, args.k)
    return {"d": args.d, "m": args.m, "p": args.p, "k": args.k, "density": dens}


def _cmd_cna(args: argparse.Namespace) -> dict[str, Any]:
    ratios: dict[int, Fraction] = {}
    for item in args.ratio or []:
        p_str, _, val = item.partition("=")
        ratios[int(p_str)] = Fraction(val)
    report = c_n_a(args.n, args.a, ratios or None)
    return {
        "n": report.n,
        "a": report.a,
        "ratios": {str(p): r for p, r in sorted(report.ratios.items())},
        "arch_limit": report.arch_limit,
        "c": report.c_value,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="normcensus", description=__doc__)
    parser.add_argument("--tsv", action="store_true", help="tab-separated output instead of JSON")
    parser.add_argument("--out", metavar="PATH", help="write the report to a file")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tsv", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--out", metavar="PATH", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    p = sub.add_parser("unit", help="fundamental unit and narrow class group of Q(sqrt(d))")
    p.add_argument("d", type=int)
    p.set_defaults(func=_cmd_unit)

    p = sub.add_parser("solve", help="decide integral solvability of N = m")
    p.add_argument("d", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("census", help="verdict/slope table over a range of m")
    p.add_argument("d", type=int)
    p.add_argument("--m-range", required=True, metavar="A..B")
    p.add_argument("--T-exponents", metavar="k1,k2,...", help="also count solutions up to 10^k")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("count", help="exact number of solutions of height <= T")
    p.add_argument("d", type=int)
    p.add_argument("m", type=int)
    p.add_argument("T")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("density", help="#solutions mod p^k divided by p^k")
    p.add_argument("d", type=int)
    p.add_argument("m", type=int)
    p.add_argument("p", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("cna", help="density constant c_n(a) for symmetric determinant surfaces")
    p.add_argument("n", type=int)
    p.add_argument("a", type=int)
    p.add_argument("--ratio", action="append", metavar="p=num/den", help="local density ratio at p")
    p.set_defaults(func=_cmd_cna)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    raw = list(sys.argv[1:] if argv is None else argv)
    # fuse "--m-range -50..50" so argparse does not read the value as a flag
    fused: list[str] = []
    skip = False
    for i, tok in enumerate(raw):
        if skip:
            skip = False
            continue
        if tok == "--m-range" and i + 1 < len(raw):
            fused.append(f"--m-range={raw[i + 1]}")
            skip = True
        else:
            fused.append(tok)
    args = parser.parse_args(fused)
    try:
        report = args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    _emit(report, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
