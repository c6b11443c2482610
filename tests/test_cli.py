import json
import math
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import normcensus
from normcensus import census, cli, counting
from normcensus.arith import InvariantError, factorize, kronecker
from normcensus.census import equation_spec
from normcensus.classgroup import NarrowClassGroup, class_group
from normcensus.counting import fundamental_solutions
from pell34_oracle import pell34_criterion
from brute_oracle import brute_count
from yscan_oracle import yscan_orbits


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


def test_unit_report(capsys):
    obj = run_json(capsys, "unit", "34")
    assert obj["d"] == 34 and obj["D"] == 136
    assert obj["eps0"] == "35+6*sqrt(34)"
    assert obj["eps0_norm"] == 1
    assert obj["eps"] == "35+6*sqrt(34)"
    assert obj["h_plus"] == 4
    assert obj["cyclic_structure"] == [4]


def test_unit_rejects_bad_d(capsys):
    rc, out, err = run(capsys, "unit", "12")
    assert rc == 2 and out == "" and "error" in err


def test_solve_reports_witness(capsys):
    obj = run_json(capsys, "solve", "34", "33")
    assert obj["solvable"] is True
    assert obj["c_m"] == 8
    assert obj["witness"] == [13, 2]
    assert obj["locally_solvable"] is True


def test_solve_obstructed_case(capsys):
    obj = run_json(capsys, "solve", "34", "-2")
    assert obj["solvable"] is False
    assert obj["c_m"] == 0
    assert obj["witness"] is None
    assert obj["locally_solvable"] is True  # the failure is global


def test_solve_d13458_class_count(capsys):
    # D = 53832 has narrow class group Z/14 x Z/2 whose recorded generators
    # are not a basis; c_m must not depend on them
    obj = run_json(capsys, "solve", "13458", "-392")
    assert obj["solvable"] is True and obj["c_m"] == 28
    x, y = obj["witness"]
    assert x * x - 13458 * y * y == -392
    for m in (-329, -56, -161):
        obj = run_json(capsys, "solve", "13458", str(m))
        assert obj["solvable"] is False, m
        assert yscan_orbits(equation_spec(13458, m)).orbit_count == 0, m


def test_solve_large_split_prime_is_fast(capsys):
    # the Frobenius class and the orbits take O(log p) steps, not O(p)
    p = 1_000_000_009
    start = time.perf_counter()
    obj = run_json(capsys, "solve", "34", str(p))
    assert time.perf_counter() - start < 30
    assert obj["solvable"] is True
    x, y = obj["witness"]
    assert x * x - 34 * y * y == p


def test_large_discriminant_class_groups(capsys):
    # D = 40000076 (prime d) and D = 38798760 (d = 2*3*...*19, h+ = 128):
    # the reduced forms come from divisors of (D - b^2)/4, and the table from
    # lookups, so these build in well under a second
    start = time.perf_counter()
    for d in (10000019, 9699690):
        obj = run_json(capsys, "unit", str(d))
        structure = obj["cyclic_structure"]
        assert math.prod(structure) == obj["h_plus"]
        # genus theory: the 2-rank of the narrow class group is #{p | D} - 1
        assert sum(n % 2 == 0 for n in structure) == len(factorize(obj["D"]).factors) - 1
    assert obj["h_plus"] == 128
    obj = run_json(capsys, "solve", "9699690", "3535")
    assert obj["solvable"] is True and obj["c_m"] == 256
    x, y = obj["witness"]
    assert x * x - 9699690 * y * y == 3535
    assert time.perf_counter() - start < 60


def test_d331_census_large_regulator(capsys):
    # the unit of Q(sqrt(331)) has 52-bit coordinates; every solvable row
    # has 2 c_m / h+ orbits and calibration 2 sqrt(D)
    obj = run_json(capsys, "census", "331", "--m-range=-3..3", "--T-exponents", "2,100")
    h_plus = run_json(capsys, "unit", "331")["h_plus"]
    solvable = [r for r in obj["rows"] if r["solvable"]]
    assert [r["m"] for r in solvable] == [-3, -2, 1]
    for row in solvable:
        assert row["orbit_count"] * h_plus == 2 * row["c_m"], row
        assert abs(row["calibration"] - 2 * math.sqrt(1324)) <= 1e-9, row
    for row in obj["rows"]:
        sol = run_json(capsys, "solve", "331", str(row["m"]))
        assert sol["solvable"] == row["solvable"]
        if sol["solvable"]:
            x, y = sol["witness"]
            assert x * x - 331 * y * y == row["m"]


def _run_optimized(*args):
    # python -O strips asserts; the library's invariant checks must survive it
    src = str(Path(normcensus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-O", *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_optimized_solve_reports_witness():
    proc = _run_optimized("-m", "normcensus", "solve", "331", "-3")
    assert proc.returncode == 0, proc.stderr
    x, y = json.loads(proc.stdout)["witness"]
    assert x * x - 331 * y * y == -3


def test_optimized_invariant_violation_exits_3():
    # a norm form that lies makes every new orbit representative fail its check
    proc = _run_optimized(
        "-c",
        "import sys; from normcensus import census, cli\n"
        "census.EquationSpec.evaluate = lambda self, x, y: self.m + 1\n"
        "sys.exit(cli.main(['solve', '34', '33']))",
    )
    assert proc.returncode == 3, proc.stderr
    assert "internal invariant violated" in proc.stderr


def test_optimized_reverse_invariant_violation_exits_3():
    # c_m = 0 makes the criterion say unsolvable while an orbit exists
    proc = _run_optimized(
        "-c",
        "import sys; from normcensus import census, cli\n"
        "census.c_m = lambda spec: 0\n"
        "sys.exit(cli.main(['solve', '34', '33']))",
    )
    assert proc.returncode == 3, proc.stderr
    assert "internal invariant violated" in proc.stderr


def test_optimized_unit_invariant_violation_exits_3():
    # a norm that lies makes the norm-one unit fail its check in field_data
    proc = _run_optimized(
        "-c",
        "import sys; from normcensus import cli, quadfield\n"
        "quadfield.QuadElem.norm = lambda self: -1\n"
        "sys.exit(cli.main(['unit', '34']))",
    )
    assert proc.returncode == 3, proc.stderr
    assert "internal invariant violated" in proc.stderr


def test_census_computes_orbits_once_per_row(capsys, monkeypatch):
    calls = []
    real = counting.fundamental_solutions

    def counted(spec):
        calls.append(spec.m)
        return real(spec)

    monkeypatch.setattr(counting, "fundamental_solutions", counted)
    monkeypatch.setattr(census, "fundamental_solutions", counted)
    monkeypatch.setattr(cli, "fundamental_solutions", counted)
    obj = run_json(capsys, "census", "34", "--m-range=-20..20", "--T-exponents", "2,100")
    assert sorted(calls) == [r["m"] for r in obj["rows"]]
    # and once per solve, solvable or not, and per count
    for argv in (("solve", "34", "33"), ("solve", "34", "3"), ("count", "34", "33", "10")):
        calls.clear()
        run_json(capsys, *argv)
        assert calls == [int(argv[2])], argv


def test_cli_import_loads_no_scipy():
    # nor numpy, which only the test oracles use
    src = str(Path(normcensus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import normcensus.cli, sys; "
        "assert 'scipy' not in sys.modules; assert 'numpy' not in sys.modules"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_runtime_runs_with_numpy_blocked():
    # sys.modules["numpy"] = None makes any numpy import raise ImportError
    src = str(Path(normcensus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    commands = [
        ["density", "5", "3", "2", "12"],
        ["density", "34", "153", "17", "6"],
        ["density", "34", "7", "3", "13"],
        ["solve", "34", "33"],
        ["census", "34", "--m-range=-6..6", "--T-exponents", "2,100"],
        ["count", "34", "33", "1000"],
        ["unit", "34"],
    ]
    code = textwrap.dedent(
        """
        import contextlib, io, json, sys
        sys.modules["numpy"] = None
        from normcensus import cli
        from normcensus.hassewitt import isometry_count_mod8
        runs = []
        for argv in json.loads(sys.argv[1]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                runs.append([cli.main(argv), buf.getvalue()])
        iso = isometry_count_mod8([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        print(json.dumps({"runs": runs, "iso": iso}))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    for argv, (rc, _) in zip(commands, obj["runs"]):
        assert rc == 0, argv
    densities = [json.loads(out)["density"] for _, out in obj["runs"][:3]]
    assert densities == ["3/2", "2/1", "2/3"]
    assert obj["iso"] == 6144


def test_solve_deep_power_of_two(capsys):
    # v_2(m) = 20 once needed a 2^26-residue search and exited 2
    m = 2**20
    obj = run_json(capsys, "solve", "34", str(m))
    assert obj["solvable"] is True
    x, y = obj["witness"]
    assert x * x - 34 * y * y == m


def test_solve_huge_power_of_two_matches_closed_form(capsys):
    m = -(2**61)
    obj = run_json(capsys, "solve", "34", str(m))
    want = pell34_criterion(m).locally_solvable
    assert obj["local"] == {str(p): ok for p, ok in want.items()}


def test_count_dispatches_to_orbit_count(capsys):
    obj = run_json(capsys, "count", "5", "-11", "100000")
    assert obj["count"] == brute_count(equation_spec(5, -11), 10**5)


def test_solve_rejects_m_zero(capsys):
    rc, _, err = run(capsys, "solve", "34", "0")
    assert rc == 2 and "error" in err


def test_count_small(capsys):
    obj = run_json(capsys, "count", "2", "-1", "10")
    assert obj["count"] == 8


def test_count_huge_T_serialized_as_string(capsys):
    T = 10**60
    obj = run_json(capsys, "count", "34", "1", str(T))
    assert obj["T"] == str(T)
    assert isinstance(obj["count"], int) and obj["count"] > 0


def test_density_fraction_output(capsys):
    obj = run_json(capsys, "density", "34", "1", "7", "3")
    assert obj["density"] == "8/7"


def test_cna_outputs(capsys):
    obj = run_json(capsys, "cna", "3", "1")
    assert obj["c"] == "1/2"
    obj = run_json(capsys, "cna", "5", "1", "--ratio", "2=1/3")
    assert obj["c"] == "4/3"
    rc, _, err = run(capsys, "cna", "5", "3")
    assert rc == 2 and "error" in err


def test_census_rows_consistent(capsys):
    obj = run_json(capsys, "census", "2", "--m-range", "-10..10")
    rows = obj["rows"]
    assert len(rows) == 20
    assert obj["summary"]["rows"] == 20
    for row in rows:
        assert row["solvable"] == (row["orbit_count"] > 0)
        if row["calibration"] is not None:
            assert row["calibration"] > 0
    assert "calibration_mean" in obj["summary"]
    assert obj["summary"]["calibration_rel_spread"] < 0.01


def test_census_thread_count_does_not_change_output(capsys, monkeypatch):
    monkeypatch.setenv("NORMCENSUS_THREADS", "1")
    rc1, out1, _ = run(capsys, "census", "34", "--m-range=-6..6")
    monkeypatch.setenv("NORMCENSUS_THREADS", "4")
    rc4, out4, _ = run(capsys, "census", "34", "--m-range=-6..6")
    assert rc1 == rc4 == 0
    assert out1 == out4


def test_census_bad_thread_env(capsys, monkeypatch):
    monkeypatch.setenv("NORMCENSUS_THREADS", "zero")
    rc, _, err = run(capsys, "census", "2", "--m-range", "1..2")
    assert rc == 2 and "NORMCENSUS_THREADS" in err


def test_census_empty_range(capsys):
    rc, _, err = run(capsys, "census", "2", "--m-range", "0..0")
    assert rc == 2 and "empty" in err


def test_census_malformed_range(capsys):
    rc, _, err = run(capsys, "census", "2", "--m-range", "five..six")
    assert rc == 2


def test_census_rejects_negative_or_empty_exponent(capsys):
    # 10**-1 is the float 0.1, which would count up to a fractional height
    for bad in ("-1,2", "2,,100", ""):
        rc, out, err = run(capsys, "census", "34", "--m-range=1..2", f"--T-exponents={bad}")
        assert rc == 2 and out == "" and "--T-exponents" in err, bad


def test_census_counts_column(capsys):
    obj = run_json(capsys, "census", "34", "--m-range", "1..2", "--T-exponents", "2,100")
    for row in obj["rows"]:
        assert set(row["counts"].keys()) == {"2", "100"}
    m1 = next(r for r in obj["rows"] if r["m"] == 1)
    assert m1["counts"]["2"] == 6
    assert m1["counts"]["100"] == 218


def test_tsv_flag_before_or_after_subcommand(capsys):
    rc, out_a, _ = run(capsys, "--tsv", "density", "34", "1", "7", "3")
    rc_b, out_b, _ = run(capsys, "density", "34", "1", "7", "3", "--tsv")
    assert rc == rc_b == 0
    assert out_a == out_b
    assert "density\t\"8/7\"" in out_a


def test_tsv_census_table(capsys):
    rc, out, _ = run(capsys, "--tsv", "census", "2", "--m-range", "1..3")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t")[:3] == ["m", "solvable", "c_m"]
    assert len([ln for ln in lines if not ln.startswith("#")]) == 4  # header + 3 rows
    assert any(ln.startswith("# summary") for ln in lines)


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run(capsys, "solve", "34", "2", "--out", str(target))
    assert rc == 0 and out == ""
    obj = json.loads(target.read_text())
    assert obj["solvable"] is True


def test_internal_error_exit_code(capsys, monkeypatch):
    def boom(spec):
        raise ArithmeticError("invariant down")

    monkeypatch.setattr(cli, "verdict", boom)
    rc, _, err = run(capsys, "solve", "34", "1")
    assert rc == 3 and "invariant" in err


def test_count_beyond_4300_digits(capsys):
    # Python 3.11+ refuses to convert integers over 4,300 digits by default
    digits = "1" + "0" * 5000
    obj = run_json(capsys, "count", "34", "33", digits)
    assert obj["T"] == digits
    assert obj["count"] == fundamental_solutions(equation_spec(34, 33)).count(10**5000)


def test_census_looks_up_each_prime_class_once(capsys, monkeypatch):
    # frobenius_class and sign_class are memoized on the group, so a census
    # over one field looks each class up once, however many rows share it
    looked_up = []
    real = NarrowClassGroup.index_of

    def counted(self, f):
        looked_up.append(f.a)
        return real(self, f)

    monkeypatch.setattr(NarrowClassGroup, "index_of", counted)
    class_group.cache_clear()
    run_json(capsys, "census", "34", "--m-range=-200..200")
    primes = {p for m in range(1, 201) for p, _ in factorize(m).factors if kronecker(136, p) != -1}
    assert sorted(looked_up) == sorted(primes | {-1})


def _full_census_report(d, lo, hi, exponents):
    # the report as one object, the way the census was built before it streamed
    rows = [cli._census_row(d, m, exponents) for m in range(lo, hi + 1) if m != 0]
    cals = [r["calibration"] for r in rows if r["calibration"] is not None]
    summary = {"rows": len(rows), "solvable": sum(r["solvable"] for r in rows)}
    if cals:
        mean = sum(cals) / len(cals)
        summary["calibration_mean"] = mean
        summary["calibration_rel_spread"] = (max(cals) - min(cals)) / mean
    return {"d": d, "m_range": [lo, hi], "rows": rows, "summary": summary}


def test_streamed_census_equals_full_report(tmp_path, capsys):
    for d, lo, hi in [(34, -30, 30), (5, -12, 7), (331, -3, 3)]:
        report = _full_census_report(d, lo, hi, [2, 100])
        cols = list(report["rows"][0])
        tsv = ["\t".join(cols)]
        tsv += ["\t".join(str(cli._num(r[c])) for c in cols) for r in report["rows"]]
        tsv += [f"# {k}\t{json.dumps(cli._walk(v))}" for k, v in report.items() if k != "rows"]
        want = {"json": json.dumps(cli._walk(report)) + "\n", "tsv": "\n".join(tsv) + "\n"}
        argv = ["census", str(d), f"--m-range={lo}..{hi}", "--T-exponents", "2,100"]
        for fmt, extra in (("json", []), ("tsv", ["--tsv"])):
            rc, out, _ = run(capsys, *extra, *argv)
            assert rc == 0 and out == want[fmt], (d, fmt)
            target = tmp_path / f"{d}.{fmt}"
            rc, out, _ = run(capsys, *extra, *argv, "--out", str(target))
            assert rc == 0 and out == "" and target.read_text() == want[fmt], (d, fmt)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{d}.{fmt}" for d in (34, 5, 331) for fmt in ("json", "tsv")
    )


def test_census_memory_stays_flat(tmp_path, capsys):
    # rows are written as they are computed, so ten times the rows must not
    # raise the traced peak; held rows took about 1.3 KB each
    import tracemalloc

    out = str(tmp_path / "census.json")
    assert cli.main(["census", "34", "--m-range=-5..5", "--out", out]) == 0  # warm the caches
    tracemalloc.start()
    try:
        assert cli.main(["census", "34", "--m-range=-100..100", "--T-exponents", "2,100", "--out", out]) == 0
        small = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert cli.main(["census", "34", "--m-range=-1000..1000", "--T-exponents", "2,100", "--out", out]) == 0
        large = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(json.loads((tmp_path / "census.json").read_text())["rows"]) == 2000
    assert large - small < 0.5 * 2**20, (small, large)


def test_census_failure_on_a_later_row(tmp_path, capsys, monkeypatch):
    real = cli.verdict

    def failing(spec):
        if spec.m == 5:
            raise InvariantError("planted failure")
        return real(spec)

    monkeypatch.setattr(cli, "verdict", failing)
    target = tmp_path / "census.json"
    rc, out, err = run(capsys, "census", "34", "--m-range=1..9", "--out", str(target))
    assert rc == 3 and out == "" and "planted failure" in err
    assert list(tmp_path.iterdir()) == []  # neither the file nor its temporary
    # on stdout the rows before the failure are already written
    rc, out, err = run(capsys, "census", "34", "--m-range=1..9")
    assert rc == 3 and "planted failure" in err
    assert out.startswith('{"d": 34, "m_range": [1, 9], "rows": [{"m": 1, ')
    assert '{"m": 4, ' in out and '"m": 5' not in out


def test_census_bad_d_writes_nothing(tmp_path, capsys):
    target = tmp_path / "census.json"
    for extra in ([], ["--tsv"], ["--out", str(target)]):
        rc, out, err = run(capsys, *extra, "census", "12", "--m-range=1..3")
        assert rc == 2 and out == "" and "not squarefree" in err
    assert list(tmp_path.iterdir()) == []


def test_census_out_to_a_pipe_and_through_a_link(tmp_path, capsys):
    # a pipe is written in place, not replaced by a file; a symlink is
    # written through, so it still points at the report
    import threading

    argv = ["census", "34", "--m-range=-6..6", "--T-exponents", "2,100"]
    _, want, _ = run(capsys, *argv)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    rc = cli.main([*argv, "--out", str(fifo)])
    reader.join(timeout=60)
    assert not reader.is_alive() and rc == 0 and got == [want]
    assert fifo.is_fifo()
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    real.write_text("old")
    link.symlink_to(real)
    assert cli.main([*argv, "--out", str(link)]) == 0
    assert link.is_symlink() and real.read_text() == want
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "pipe", "real.json"]
