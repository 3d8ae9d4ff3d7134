"""Command-line interface: output values, CSV round-trip, exit codes."""

import csv
import json
import os

import pytest
from mpmath import mp, mpf

from fdsl4 import cli
from fdsl4.cli import main
from fdsl4.corrections import solution_from_payload
from fdsl4.numerics import PrecisionContext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
B1 = os.path.join(ROOT, "problems", "benchmark1.cfg")
B2 = os.path.join(ROOT, "problems", "benchmark2.cfg")
ZERO = os.path.join(ROOT, "problems", "zero.cfg")

RANK10_N1 = "97.909068819798261176982167541814171360744557739731"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_benchmark2_table_value(capsys):
    code, out, _ = run(capsys, "solve", "--problem", B2, "--n", "1",
                       "--m", "10", "--digits", "120")
    assert code == 0
    ctx = PrecisionContext(digits=120)
    value = out.split("lambda=")[1].split()[0]
    with ctx.workprec():
        assert abs(mpf(value) - mpf(RANK10_N1)) < mpf("1e-44")


def test_solve_zero_potentials_notes_vanishing(capsys):
    code, out, _ = run(capsys, "solve", "--problem", ZERO, "--n", "2",
                       "--m", "5", "--digits", "60")
    assert code == 0
    assert "corrections vanish" in out
    ctx = PrecisionContext(digits=60)
    value = out.split("lambda=")[1].split()[0]
    with ctx.workprec():
        assert abs(mpf(value) - 16 * mp.pi ** 4) < mpf("1e-40")


def test_solve_json_export(capsys, tmp_path):
    out_path = tmp_path / "sol.json"
    code, _, _ = run(capsys, "solve", "--problem", B2, "--n", "3", "--m", "4",
                     "--digits", "80", "--json", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    sol = solution_from_payload(payload)
    assert sol.n == 3 and sol.m == 4


@pytest.mark.parametrize("argv", [
    ("solve", "--m", "1", "--json"),
    ("sweep", "--m-max", "1", "--out"),
])
def test_unwritable_output_is_usage_error(capsys, tmp_path, monkeypatch, argv):
    # the missing directory is reported before any solve, and nothing is written
    def no_solve(*args):
        raise AssertionError("solved before checking the output path")

    monkeypatch.setattr(cli, "solve", no_solve)
    *head, flag = argv
    code, _, err = run(capsys, *head, "--problem", B2, "--digits", "40",
                       flag, str(tmp_path / "missing" / "out"))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_solve_multiple_indices_ordered(capsys):
    code, out, _ = run(capsys, "solve", "--problem", B2, "--n", "2,1",
                       "--m", "2", "--digits", "60")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("n=")]
    assert lines[0].startswith("n=2") and lines[1].startswith("n=1")


def test_sweep_csv_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--problem", B2, "--n", "1",
                     "--m-max", "3", "--digits", "80", "--out", str(out_path))
    assert code == 0
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "m", "lambda_approx", "residual_norm", "lambda_bound"]
    assert len(rows) == 5
    ctx = PrecisionContext(digits=80)
    with ctx.workprec():
        # decimal strings round-trip: parse and re-format identically
        for row in rows[1:]:
            for cell, digits in ((row[2], 50), (row[3], 10)):
                assert mp.nstr(mpf(cell), digits, strip_zeros=False) == cell
    # the eigenvalue column carries the working precision, as `solve` does
    code, out, _ = run(capsys, "solve", "--problem", B2, "--n", "1",
                       "--m", "3", "--digits", "80")
    assert code == 0
    assert out.split("lambda=")[1].strip() == rows[4][2]
    with ctx.workprec():
        # residual column decreases with rank and reproduces the reference
        # table within a factor of two
        deltas = [mpf(row[3]) for row in rows[1:]]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))
        from fdsl4 import load_fixtures
        fx = load_fixtures()
        for m in (1, 2, 3):
            printed = mpf(fx.b2_residual[(1, m)])
            assert printed / 2 < deltas[m] < printed * 2


def test_sweep_rejects_bad_rank(capsys):
    code, _, err = run(capsys, "sweep", "--problem", B2, "--m-max", "0",
                       "--digits", "60")
    assert code == 2
    assert "m-max" in err


@pytest.mark.parametrize("argv,option", [
    (("solve", "--m", "-1"), "--m"),
    (("check", "--m", "-1"), "--m"),
    (("oracle", "--m", "-1"), "--m"),
    (("oracle", "--basis-size", "0"), "--basis-size"),
    (("solve", "--print-digits", "0"), "--print-digits"),
    (("solve", "--print-digits", "-3"), "--print-digits"),
    (("sweep", "--print-digits", "x"), "--print-digits"),
    (("oracle", "--oracle-digits", "5"), "--oracle-digits"),
])
def test_out_of_range_numbers_are_usage_errors(capsys, argv, option):
    code, out, err = run(capsys, *argv, "--problem", B2, "--digits", "60")
    assert code == 2
    assert out == ""
    assert option in err


def test_check_reports_condition(capsys):
    code, out, _ = run(capsys, "check", "--problem", B1, "--n", "1,3",
                       "--digits", "60")
    assert code == 0
    blocks = out.split("n=")
    assert "not met" in blocks[1]
    assert "may still converge" in blocks[1]
    assert "condition met" in blocks[2]
    assert "error bound" in blocks[2]


def test_check_benchmark2_n2_met(capsys):
    code, out, _ = run(capsys, "check", "--problem", B2, "--n", "2",
                       "--digits", "60")
    assert code == 0
    assert "condition met" in out


def test_oracle_zero_potentials(capsys):
    # both sides are exact here, so the agreement is the full oracle precision
    for oracle_digits in (40, 60):
        code, out, _ = run(capsys, "oracle", "--problem", ZERO, "--n", "1,2",
                           "--m", "2", "--digits", "60", "--basis-size", "24",
                           "--oracle-digits", str(oracle_digits))
        assert code == 0
        rows = [ln.split() for ln in out.splitlines()[1:] if ln.strip()]
        assert [int(row[-1]) for row in rows] == [oracle_digits] * 2


def test_sweep_error_column_decays_log_linearly(capsys, tmp_path):
    # benchmark-1 eigenvalue errors against the exact fixture fall roughly
    # geometrically with the rank
    from fdsl4 import load_fixtures
    from .oracles import least_squares_slope
    out_path = tmp_path / "sweep1.csv"
    code, _, _ = run(capsys, "sweep", "--problem", B1, "--n", "1",
                     "--m-max", "8", "--digits", "120", "--out", str(out_path))
    assert code == 0
    fx = load_fixtures()
    ctx = PrecisionContext(digits=120)
    with ctx.workprec():
        exact = mpf(fx.b1_exact[1])
        with open(out_path) as fh:
            rows = list(csv.reader(fh))[1:]
        errs = [abs(mpf(row[2]) - exact) for row in rows]
        slope = least_squares_slope([mpf(k) for k in range(len(errs))],
                                    [mp.log(e) for e in errs])
        assert slope < mpf("-0.5")
        assert errs[-1] < errs[0] * mpf("1e-6")


def test_solve_certify_reports_digits(capsys):
    code, out, _ = run(capsys, "solve", "--problem", B2, "--n", "1",
                       "--m", "3", "--digits", "80", "--certify")
    assert code == 0
    assert "certified digits:" in out
    certified = int(out.rsplit("certified digits:", 1)[1].split()[0])
    assert certified >= 35


@pytest.mark.parametrize("problem,argv,certified", [
    (B2, ("--n", "1,2,50", "--m", "10"), [150, 150, 115]),
    (B2, ("--n", "1", "--m", "3", "--digits", "80"), [40]),
    (B1, ("--n", "1", "--m", "20"), [104]),
], ids=["benchmark2-rank10", "benchmark2-80digits", "benchmark1-rank20"])
def test_solve_certify_solves_twice_per_index(capsys, monkeypatch, problem, argv, certified):
    # one solve at the working precision and one replay at half of it; the
    # replay is compared with the printed value, not with a third solve
    calls, real = [], cli.solve

    def counted(spec, n, m, ctx):
        calls.append(n)
        return real(spec, n, m, ctx)

    monkeypatch.setattr(cli, "solve", counted)
    code, out, _ = run(capsys, "solve", "--problem", problem, *argv, "--certify")
    assert code == 0
    assert [int(line.rsplit("certified digits:", 1)[1]) for line in out.splitlines()] == certified
    assert len(calls) == 2 * len(certified)


def test_missing_problem_file(capsys):
    code, _, err = run(capsys, "solve", "--problem", "/nonexistent.cfg")
    assert code == 2
    assert "error" in err


def test_bad_config_reports_line(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("X = 1\nq0 = [0, oops]\nq1 = [0]\nq2 = [0]\n")
    code, _, err = run(capsys, "solve", "--problem", str(bad))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("x_line,q0_line", [
    ("X = -1", "q0 = [0, 1]"), ("X = nan", "q0 = [0, 1]"),
    ("X = inf", "q0 = [0, 1]"), ("X = 1", "q0 = [0, inf]"),
])
def test_bad_config_value_exits_2(capsys, tmp_path, x_line, q0_line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"{x_line}\n{q0_line}\nq1 = [0]\nq2 = [0]\n")
    code, out, err = run(capsys, "check", "--problem", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_bad_digits(capsys):
    code, _, err = run(capsys, "solve", "--problem", B2, "--digits", "5")
    assert code == 2
    assert "30" in err


def test_digits_below_30_names_the_option(capsys):
    code, out, err = run(capsys, "solve", "--problem", B2, "--digits", "10")
    assert code == 2
    assert out == ""
    assert "--digits" in err and "30" in err
