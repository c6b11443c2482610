"""Command-line interface: unit/class-group reports, solvability verdicts,
census tables, exact counts, local densities, and c_n(a) values.

Output is JSON by default (deterministic field order, big integers as decimal
strings, rationals as "num/den") or TSV with --tsv.  Exit codes: 0 success,
2 invalid input, 3 internal invariant violation.  A census writes each row
as it computes it, so an exit 3 on a later row leaves the earlier rows on
stdout; with --out it leaves no file.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from array import array
from collections.abc import Iterable, Iterator
from fractions import Fraction
from typing import Any, TextIO

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
    # A census's "rows" is a generator that fills the summary after its last
    # row.  The first row is computed before anything is written, so an error
    # there (a bad d) leaves no output.  --out is renamed into place complete,
    # so a failure leaves PATH as it was; a device or a pipe is written in place.
    rows = report.get("rows")
    if rows is not None:
        rows = itertools.chain([next(rows)], rows)
    write = _write_tsv if args.tsv else _write_json
    if not args.out:
        write(report, rows, sys.stdout)
        return
    target = os.path.realpath(args.out)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w") as fh:
            write(report, rows, fh)
        return
    tmp = f"{target}.{os.getpid()}.tmp"
    fh = open(tmp, "w")
    try:
        with fh:
            write(report, rows, fh)
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, target)


def _write_json(report: dict[str, Any], rows: Iterator[dict[str, Any]] | None, fh: TextIO) -> None:
    # the same text as json.dumps of the report with "rows" as a list
    if rows is None:
        fh.write(_json_str(report) + "\n")
        return
    fh.write("{")
    for i, (key, val) in enumerate(report.items()):
        fh.write(f"{', ' if i else ''}{_ENCODER.encode(key)}: ")
        if key == "rows":
            fh.write("[")
            for j, row in enumerate(rows):
                fh.write(f"{', ' if j else ''}{_json_str(row)}")
            fh.write("]")
        else:
            fh.write(_json_str(val))
    fh.write("}\n")


def _write_tsv(report: dict[str, Any], rows: Iterator[dict[str, Any]] | None, fh: TextIO) -> None:
    # a table of the rows, if any, then one line per other key
    cols: list[str] = []
    for row in rows or ():
        if not cols:
            cols = list(row)
            fh.write("\t".join(cols) + "\n")
        fh.write("\t".join(str(_num(row[c])) for c in cols) + "\n")
    prefix = "" if rows is None else "# "
    for key, val in report.items():
        if key != "rows":
            fh.write(f"{prefix}{key}\t{_json_str(val)}\n")


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


_ENCODER = json.JSONEncoder(default=_json_default)  # json.dumps(x, default=...) builds one per call


def _json_str(x: Any) -> str:
    return _ENCODER.encode(_walk(x))


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


def _census_rows(d: int, ms: Iterable[int], exponents: list[int], summary: dict[str, Any]) -> Iterator[dict[str, Any]]:
    # holds no row, only the calibrations (8 bytes each), and fills summary
    # after the last row: a running sum would not give the floats of sum(),
    # which compensates rounding from Python 3.12 on
    rows = solvable = 0
    cals = array("d")
    for m in ms:
        row = _census_row(d, m, exponents)
        rows += 1
        solvable += row["solvable"]
        if row["calibration"] is not None:
            cals.append(row["calibration"])
        yield row
    summary["rows"] = rows
    summary["solvable"] = solvable
    if cals:
        mean = sum(cals) / len(cals)
        summary["calibration_mean"] = mean
        summary["calibration_rel_spread"] = (max(cals) - min(cals)) / mean


def _cmd_census(args: argparse.Namespace) -> dict[str, Any]:
    match = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", args.m_range)
    if match is None:
        raise ValueError(f"--m-range must look like A..B, got {args.m_range!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    if not any(range(lo, hi + 1)):  # no nonzero m; stops at the first one
        raise ValueError(f"m range {args.m_range} is empty")
    if args.T_exponents is not None and not re.fullmatch(r"\d+(,\d+)*", args.T_exponents):
        raise ValueError(f"--T-exponents must be nonnegative integers k1,k2,..., got {args.T_exponents!r}")
    exponents = [int(k) for k in args.T_exponents.split(",")] if args.T_exponents else []
    _threads()
    summary: dict[str, Any] = {}
    rows = _census_rows(args.d, (m for m in range(lo, hi + 1) if m != 0), exponents, summary)
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
    if hasattr(sys, "set_int_max_str_digits"):  # 3.11 and 3.10.7+ cap it at 4300
        sys.set_int_max_str_digits(0)  # read and print integers of any length
    try:
        # a census computes its rows while _emit writes them
        _emit(args.func(args), args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
