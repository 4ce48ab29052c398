import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qexchange import (
    MeasureSampler,
    MixingMeasure,
    QExchMeasure,
    bounds,
    decompose,
    definetti,
    extreme_measure,
    extreme_vs_bernoulli_distance,
    measures,
    projection,
    qcore,
    random_q_exch,
)
from qexchange.cli import CSV_HEADER, main
from helpers import src_env

HALF = Fraction(1, 2)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# qbinom
# ---------------------------------------------------------------------------

def test_qbinom_basic(capsys):
    code, out, _ = run_cli(capsys, "qbinom", "4", "2", "--q", "1/2")
    assert code == 0
    assert out.strip() == "35/16"


def test_qbinom_boundary(capsys):
    code, out, _ = run_cli(capsys, "qbinom", "5", "0", "--q", "1/3")
    assert code == 0
    assert out.strip() == "1"


def test_exact_output_past_the_digit_limit(tmp_path, capsys):
    # exact values over the interpreter's 4300-digit int-to-str limit are written
    # whole; the limit stays in force for readers, where such an entry is malformed
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(capsys, "qbinom", "200", "100", "--q", "2/3")
    assert code == 0
    numerator, denominator = out.strip().split("/")
    assert len(denominator) > 4300 and len(numerator) > 4300
    assert sys.get_int_max_str_digits() == limit
    path = tmp_path / "m.json"
    one = "1" * (limit + 1)
    for record, what in [
        (f'{{"n": 0, "q": "1/2", "base": ["{one}/{one}"]}}', "record"),
        (f'{{"n": {one}, "q": "1/2", "base": ["1"]}}', "JSON"),
    ]:
        path.write_text(record)
        code, out, err = run_cli(capsys, "decompose", str(path), "--k", "0")
        assert (code, out) == (2, "")
        assert err == f"error: malformed measure {what}: an integer has more than {limit} digits, the limit for reading one\n"
    for q in (f"{one}/3", f"1/{one}"):  # --q is read by the same reader, without Python's hint
        code, out, err = run_cli(capsys, "qbinom", "3", "1", "--q", q)
        assert (code, out) == (2, "")
        assert err == f"error: cannot parse q: an integer has more than {limit} digits, the limit for reading one\n"
        assert "set_int_max_str_digits" not in err
    too_long = f"an integer has more than {limit} digits, the limit for reading one\n"
    path.write_text(random_q_exch(4, HALF, 0).to_json())
    for template, what in INT_ARGS:  # every integer argument in the same words
        code, out, err = run_cli(capsys, *int_argv(template, one, path))
        assert (code, out, err) == (2, "", f"error: cannot parse {what}: {too_long}"), template
    code, out, _ = run_cli(capsys, "distance", "--n", "100", "--n1", "0", "--k", "100", "--q", "9/10")
    assert code == 0 and out.endswith("PASS\n")


# every integer argument: (argv with {} in its place, the name its errors use)
INT_ARGS = [
    (["qbinom", "{}", "2", "--q", "1/2"], "n"),
    (["qbinom", "4", "{}", "--q", "1/2"], "k"),
    (["distance", "--n", "{}", "--n1", "1", "--k", "1", "--q", "1/2"], "n"),
    (["distance", "--n", "4", "--n1", "{}", "--k", "1", "--q", "1/2"], "n1"),
    (["distance", "--n", "4", "--n1", "1", "--k", "{}", "--q", "1/2"], "k"),
    (["sweep", "--q", "1/2", "--k", "{}", "--n", "3..5"], "k"),
    (["sweep", "--q", "1/2", "--k", "1", "--n", "{}"], "n range"),
    (["sweep", "--q", "1/2", "--k", "1", "--n", "{}..5"], "n range"),
    (["sweep", "--q", "1/2", "--k", "1", "--n", "3..{}"], "n range"),
    (["sweep", "--q", "1/2", "--k", "1", "--n", "3..5", "--n1", "fixed:{}"], "fixed n1 rule"),
    (["decompose", "{measure}", "--k", "{}"], "k"),
    (["random-measure", "--n", "{}", "--q", "1/2"], "n"),
    (["random-measure", "--n", "4", "--q", "1/2", "--seed", "{}"], "seed"),
    (["verify-all", "--max-n", "{}", "--q", "1/2"], "max-n"),
]


def int_argv(template, value, measure_path):
    return [a.replace("{}", value).replace("{measure}", str(measure_path)) for a in template]


def test_integer_arguments_take_one_grammar(tmp_path, capsys):
    # the integer form of the measure files' fraction strings, -?[0-9]+ in
    # ASCII digits: no other digits, no digit separators, no plus, no blanks
    path = tmp_path / "m.json"
    path.write_text(random_q_exch(4, HALF, 0).to_json())
    for template, what in INT_ARGS:
        assert run_cli(capsys, *int_argv(template, "3", path))[0] == 0, template
        for bad in ("\u0664", "\uff13", "1_0", "+3", " 3", "3 ", "3/1", "0x3", ""):
            code, out, err = run_cli(capsys, *int_argv(template, bad, path))
            assert (code, out) == (2, ""), (template, bad)
            assert err.startswith(f"error: cannot parse {what}: expected an integer"), (template, bad)
    # a negative value is read, and the command's own check decides
    assert run_cli(capsys, "qbinom", "4", "-1", "--q", "1/2") == (
        2, "", "error: need 0 <= k <= n, got n=4, k=-1\n"
    )
    assert run_cli(capsys, "random-measure", "--n", "-1", "--q", "1/2") == (
        2, "", "error: n must be in 0..1000, got -1\n"
    )


def test_display_float_past_the_float_range(capsys):
    # the upper bound c_k q^n exceeds the largest float at k = n = 100, q = 1/2
    code, out, _ = run_cli(capsys, "sweep", "--q", "1/2", "--k", "100", "--n", "100", "--n1", "half")
    assert code == 0
    assert out.splitlines()[1].split(",")[5] == "inf"


def test_qbinom_usage_error(capsys):
    code, _, err = run_cli(capsys, "qbinom", "2", "3", "--q", "1/2")
    assert code == 2
    assert "error" in err


def test_q_must_be_fraction_string(capsys):
    code, _, err = run_cli(capsys, "qbinom", "4", "2", "--q", "0.5")
    assert code == 2
    assert "fraction" in err
    for bad in ("3/2", "1/1", "0/3", "1/0", "0/0", "2/3/4", ".5", "1e-1", "1/2\n", "\u0661/\u0662"):
        code, out, err = run_cli(capsys, "qbinom", "4", "2", "--q", bad)
        assert (code, out) == (2, ""), bad
        assert err.startswith("error: "), bad


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def test_distance_example(capsys):
    code, out, _ = run_cli(capsys, "distance", "--n", "2", "--n1", "1", "--k", "1", "--q", "1/2")
    assert code == 0
    assert "distance = 1/3" in out
    assert "upper = 1" in out
    assert "lower = 1/8" in out
    assert out.strip().endswith("PASS")


def test_distance_zero_level(capsys):
    code, out, _ = run_cli(capsys, "distance", "--n", "6", "--n1", "0", "--k", "3", "--q", "1/2")
    assert code == 0
    assert "distance = 0" in out
    assert "lower = n/a" in out


def test_distance_single_bit(capsys):
    code, out, _ = run_cli(capsys, "distance", "--n", "1", "--n1", "1", "--k", "1", "--q", "1/2")
    assert code == 0
    assert "distance = 1 " in out


def test_distance_violation(monkeypatch, capsys):
    monkeypatch.setattr(bounds, "upper_constant", lambda k, q: q * 0)
    code, out, _ = run_cli(capsys, "distance", "--n", "2", "--n1", "1", "--k", "1", "--q", "1/2")
    assert code == 1
    assert "distance = 1/3" in out
    assert "upper = 0 (0)" in out
    assert out.strip().endswith("FAIL")


def test_distance_usage_error(capsys):
    code, _, err = run_cli(capsys, "distance", "--n", "2", "--n1", "3", "--k", "1", "--q", "1/2")
    assert code == 2
    assert "error" in err
    code, out, err = run_cli(capsys, "distance", "--n", "3", "--n1", "1", "--k", "5", "--q", "1/2")
    assert (code, out, err) == (2, "", "error: n must be at least k = 5, got 3\n")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_half_rule(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--q", "1/2", "--k", "2", "--n", "2..16", "--n1", "half")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 16  # header + 15 rows
    assert lines[1].startswith("2,2,1,1/2,")


def test_sweep_single_row_distance(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--q", "1/2", "--k", "1", "--n", "1..1", "--n1", "equal")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[:4] == ["1", "1", "1", "1/2"]
    assert float(row[4]) == 1.0  # distance 2q


def test_sweep_is_byte_deterministic(capsys):
    args = ("sweep", "--q", "1/3", "--k", "2", "--n", "2..12", "--n1", "half")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_sweep_empty_range(capsys):
    code, _, err = run_cli(capsys, "sweep", "--q", "1/2", "--k", "1", "--n", "5..3", "--n1", "equal")
    assert code == 2
    assert "empty" in err
    # a negative start is the range's fault, after a space as after an =
    for n_range in (["--n", "-3..5"], ["--n=-3..5"]):
        code, out, err = run_cli(capsys, "sweep", "--q", "1/2", "--k", "1", *n_range)
        assert (code, out, err) == (2, "", "error: n must be at least k = 1, got -3\n"), n_range


def test_sweep_fit_slope(capsys):
    code, out, err = run_cli(
        capsys,
        "sweep", "--q", "1/2", "--k", "1", "--n", "12..24", "--n1", "equal", "--fit-slope",
    )
    assert code == 0
    assert "fit_log_slope = " in err
    slope = float(err.split("=")[1])
    assert abs(slope - (-0.6931471805599453)) < 0.05


def test_sweep_rejects_decimal_q(capsys):
    # all arithmetic is exact, so a decimal q is an input error
    code, out, err = run_cli(capsys, "sweep", "--q", "0.5", "--k", "1", "--n", "1..4")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot parse q")


def test_sweep_rejects_mode_flag(capsys):
    assert main(["sweep", "--q", "1/2", "--k", "2", "--n", "60..70", "--n1", "half", "--mode", "float"]) == 2
    assert "--mode" in capsys.readouterr().err


def test_sweep_no_false_violation_below_float_epsilon(capsys):
    # q^n < 2^-52 here; a float |E - B| cancels to rounding noise from n = 64 on,
    # while the exact distance stays near 6 q^n
    code, out, _ = run_cli(capsys, "sweep", "--q", "1/2", "--k", "2", "--n", "60..70", "--n1", "half")
    assert code == 0
    assert "VIOLATION" not in out
    rows = {int(row.split(",")[0]): row.split(",") for row in out.splitlines()[1:]}
    assert sorted(rows) == list(range(60, 71))
    exact = extreme_vs_bernoulli_distance(64, 32, 2, HALF) / HALF**64
    assert float(rows[64][7]) == float(exact)


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--q", "1/2", "--k", "1", "--n", "1..4", "--format", "json"
    )
    assert code == 0
    records = json.loads(out)
    assert len(records) == 4
    assert records[0]["distance"] == "1"
    assert records[0]["q"] == "1/2"


def test_sweep_table_format(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--q", "1/2", "--k", "1", "--n", "1..3", "--format", "table"
    )
    assert code == 0
    assert out.splitlines()[0].split() == CSV_HEADER.split(",")


def test_sweep_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--q", "1/2", "--k", "1", "--n", "1..4", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith(CSV_HEADER)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--q", "1/2", "--k", "1", "--n", "1..4"],
        ["random-measure", "--n", "3", "--q", "1/2"],
        ["decompose", "{measure}", "--k", "1"],
    ],
)
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    measure_path = tmp_path / "m.json"
    measure_path.write_text(extreme_measure(3, 1, HALF).to_json())
    argv = [a.format(measure=measure_path) for a in argv]
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 2
    assert err.startswith("error: cannot write")


def test_sweep_violation_row(monkeypatch, capsys):
    monkeypatch.setattr(bounds, "upper_constant", lambda k, q: q * 0)
    code, out, _ = run_cli(capsys, "sweep", "--q", "1/2", "--k", "1", "--n", "1..4", "--n1", "equal")
    assert code == 1
    lines = out.strip().split("\n")
    assert lines[-1].startswith("VIOLATION,")
    assert len(lines) == 6  # header + 4 rows + violation marker
    code, out, _ = run_cli(
        capsys, "sweep", "--q", "1/2", "--k", "1", "--n", "1..4", "--n1", "equal", "--format", "table"
    )
    assert code == 1
    assert out == (  # the violation marker's cells are padded to the columns above them
        "n          k    n1    q    distance    upper  lower    dist_over_qn\n"
        "1          1    1     1/2  1           0      0.25     2           \n"
        "2          1    2     1/2  0.5         0      0.125    2           \n"
        "3          1    3     1/2  0.25        0      0.0625   2           \n"
        "4          1    4     1/2  0.125       0      0.03125  2           \n"
        "VIOLATION  n=1  n1=1  k=1  distance=1\n"
    )


def test_sweep_fixed_rule_out_of_range(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--q", "1/2", "--k", "1", "--n", "2..6", "--n1", "fixed:5"
    )
    assert code == 2


@pytest.mark.parametrize(
    "n_range, rule",
    [("3..5\n", "half"), ("\u0663..\u0665", "half"), ("3..5", "fixed:\u00b2"), ("3..5", "fixed:\u0662")],
)
def test_sweep_takes_only_ascii_digits(capsys, n_range, rule):
    code, out, err = run_cli(capsys, "sweep", "--q", "1/2", "--k", "1", "--n", n_range, "--n1", rule)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# decompose and random-measure
# ---------------------------------------------------------------------------

def test_decompose_random_measure(tmp_path, capsys):
    measure_path = tmp_path / "m.json"
    code, _, _ = run_cli(
        capsys, "random-measure", "--n", "6", "--q", "1/2", "--seed", "3",
        "--out", str(measure_path),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "decompose", str(measure_path), "--k", "2")
    assert code == 0
    record = json.loads(out)
    assert record["pass"] is True
    expected = decompose(random_q_exch(6, HALF, 3))
    reingested = MixingMeasure.from_json(json.dumps(record["mixing"]))
    assert reingested == expected
    assert Fraction(record["approx_error"]) <= Fraction(record["upper_bound"])


def test_decompose_extreme_is_point_mass(tmp_path, capsys):
    measure_path = tmp_path / "e.json"
    measure_path.write_text(extreme_measure(5, 2, HALF).to_json())
    code, out, _ = run_cli(capsys, "decompose", str(measure_path), "--k", "3")
    assert code == 0
    record = json.loads(out)
    assert record["mixing"]["alpha"] == ["0", "0", "1", "0", "0", "0"]


def test_decompose_out_file_round_trip(tmp_path, capsys):
    measure_path = tmp_path / "m.json"
    mixing_path = tmp_path / "mu.json"
    measure_path.write_text(random_q_exch(5, Fraction(1, 3), 9).to_json())
    code, _, _ = run_cli(
        capsys, "decompose", str(measure_path), "--k", "2", "--out", str(mixing_path)
    )
    assert code == 0
    assert MixingMeasure.from_json(mixing_path.read_text()) == decompose(random_q_exch(5, Fraction(1, 3), 9))


def test_decompose_bad_mass(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1, "q": "1/2", "base": ["3/5", "1/5"]}')  # mass 0.9
    code, _, err = run_cli(capsys, "decompose", str(bad), "--k", "1")
    assert code == 2
    assert "mass" in err


@pytest.mark.parametrize(
    "record",
    [
        '{"n": 1, "q": "1/2", "base": ["1/0", "0"]}',
        '{"n": 1, "q": "1/2", "base": [true, "0"]}',
        '{"n": 1, "q": "1/2", "base": [1, 0]}',
        '{"n": 1.9, "q": "1/2", "base": ["1/2", "1/2"]}',
        '{"n": "1", "q": "1/2", "base": ["1/2", "1/2"]}',
        '{"n": 1, "q": 0.5, "base": ["1/2", "1/2"]}',
        '{"n": 1, "q": "1/2", "base": "10"}',
    ],
)
def test_decompose_non_fraction_fields(tmp_path, capsys, record):
    bad = tmp_path / "bad.json"
    bad.write_text(record)
    code, out, err = run_cli(capsys, "decompose", str(bad), "--k", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed measure record")


def test_decompose_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run_cli(capsys, "decompose", str(bad), "--k", "1")
    assert code == 2
    assert "malformed" in err


def test_decompose_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "decompose", "/nonexistent/m.json", "--k", "1")
    assert code == 2
    assert err.startswith("error: cannot read measure file: ")
    # a file is read as UTF-8, the encoding of JSON, whatever the locale
    path = tmp_path / "m.json"
    path.write_bytes(b"\xff")
    code, out, err = run_cli(capsys, "decompose", str(path), "--k", "1")
    assert (code, out) == (2, "")
    assert err == (
        "error: cannot read measure file: "
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )


def test_random_measure_stdout(capsys):
    code, out, _ = run_cli(capsys, "random-measure", "--n", "3", "--q", "1/3", "--seed", "7")
    assert code == 0
    assert QExchMeasure.from_json(out) == random_q_exch(3, Fraction(1, 3), 7)
    # a negative seed is an integer like any other
    assert run_cli(capsys, "random-measure", "--n", "4", "--q", "1/2", "--seed", "-1") == (0, (
        '{"n": 4, "q": "1/2", "base": ["140891/3268452", "132634/1361855", '
        '"3554392/28598955", "336494/2451339", "800875/3268452"]}\n'
    ), "")


def test_random_measure_writes_only_files_decompose_reads(tmp_path, capsys):
    # random-measure formats under the digit limit decompose reads with: its
    # entries stay under 4300 digits up to n = 189 at q = 2/3
    path = tmp_path / "m.json"
    argv = ["random-measure", "--n", "180", "--q", "2/3", "--seed", "0", "--out", str(path)]
    assert run_cli(capsys, *argv) == (0, "", "")
    assert QExchMeasure.from_json(path.read_text()) == random_q_exch(180, Fraction(2, 3), 0)
    code, out, _ = run_cli(capsys, "decompose", str(path), "--k", "4")
    assert code == 0 and json.loads(out)["pass"] is True
    big = tmp_path / "big.json"
    result = subprocess.run(
        [sys.executable, "-m", "qexchange", "random-measure", "--n", "190", "--q", "2/3", "--out", str(big)],
        capture_output=True, text=True, env=src_env("PYTHONINTMAXSTRDIGITS"),
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        "error: a measure at n=190 has integers of more than 4300 digits, "
        "the limit a measure file is read with; use a smaller n\n"
    )
    assert not big.exists()


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

def test_verify_all_passes(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--max-n", "4", "--q", "1/2,1/3")
    assert code == 0
    assert "ALL OK" in out
    assert out.count("OK") >= 6


def test_verify_all_trivial_scale(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--max-n", "0", "--q", "1/2")
    assert code == 0
    assert "ALL OK" in out


def test_verify_all_detects_corrupted_bound(monkeypatch, capsys):
    monkeypatch.setattr(bounds, "upper_constant", lambda k, q: q * 0)
    code, out, _ = run_cli(capsys, "verify-all", "--max-n", "3", "--q", "1/2")
    assert code == 1
    assert "FAIL" in out
    assert "counterexample" in out


def test_verify_all_detects_corrupted_measure(monkeypatch, capsys):
    real = measures.extreme_measure
    monkeypatch.setattr(measures, "extreme_measure", lambda n, k, q: real(n, n - k, q))
    code, out, _ = run_cli(capsys, "verify-all", "--max-n", "3", "--q", "1/2")
    assert code == 1
    assert "FAIL" in out


def _tech_lemma_rhs_times_ten_at_n4(real):
    def corrupted(n, k, q):
        lhs, rhs = real(n, k, q)
        return lhs, rhs * 10 if n == 4 else rhs
    return corrupted


def _swap_words_10_and_01_at_n2(real):
    def corrupted(m):
        w = real(m).weights
        return measures.DenseMeasure(2, (w[0], w[2], w[1], w[3])) if m.n == 2 else real(m)
    return corrupted


SUITE_FAILURES = [  # (module, function, corrupted(real), FAIL line, first counterexample)
    (qcore, "q_binomial", lambda real: lambda n, k, q: real(n, k, q) + ((n, k) == (3, 1)),
     "qbinom-identity         33 checks  FAIL",
     "statistic sum mismatch at n=3, k=1, q=1/2: 7/4, 7/4 vs 11/4"),
    (qcore, "coinversions", lambda real: lambda w: real(w) + (str(w) == "010"),
     "qbinom-identity         31 checks  FAIL",
     "inv+coinv != ones*zeros at word 010"),
    (measures, "to_dense",
     lambda real: lambda m: measures.DenseMeasure(2, real(m).weights[::-1]) if m.n == 2 else real(m),
     "exchangeability         24 checks  FAIL",
     "marginal mismatch at n=2, k=1, q=1/2, packed=0: dense=0, compact=1"),
    # words 10 and 01 of every n = 2 table trade weights: the projections still
    # match the table at k = n, which breaks the swap rule
    pytest.param(measures, "to_dense", _swap_words_10_and_01_at_n2,
                 "exchangeability         26 checks  FAIL",
                 "swap rule broken at n=2, q=1/2: word 10, position 1", id="to_dense_swap"),
    # a base read backwards is still a q-exchangeable measure of the same mass
    (projection, "project",
     lambda real: lambda m, k: QExchMeasure(k, m.q, real(m, k).base[::-1]) if 0 < k < m.n else real(m, k),
     "exchangeability         24 checks  FAIL",
     "marginal mismatch at n=2, k=1, q=1/2, packed=0: dense=1, compact=0"),
    (projection, "project_extreme_closed_form",
     lambda real: lambda n, n1, k, k1, q: real(n, n1, k, k1, q) * (2 if (n, n1) == (3, 1) else 1),
     "projection-oracle       72 checks  FAIL",
     "projection mismatch at n=3, n1=1, k=3, k1=1, q=1/2: closed=8/7, dense=4/7, compact=4/7"),
    (definetti, "approx_error", lambda real: lambda m, k: real(m, k) + (m.n == 3 and k == 2),
     "upper-bound             51 checks  FAIL",
     "mixture error above bound at n=3, k=2, q=1/2, seed=0: 13900820/10561803 > 7283971/21123606"),
    (bounds, "lower_constant", lambda real: lambda k, q: real(k, q) * (100 if k == 2 else 1),
     "sharpness-lower          6 checks  FAIL",
     "lower bound violated at n=2, n1=2, k=2, q=1/2: 5/4 < 75/4"),
    (bounds, "tech_lemma_lhs_rhs", _tech_lemma_rhs_times_ten_at_n4,
     "sharpness-lower         21 checks  FAIL",
     "technical inequality failed at n=4, k=1, q=1/2: 1/15 < 5/8"),
    (definetti, "decompose", lambda real: lambda m: MixingMeasure(m.n, m.q, real(m).alpha[::-1]),
     "decomposition            8 checks  FAIL",
     "reconstruction mismatch at n=1, q=1/2, seed=0"),
    (definetti, "mixture",
     lambda real: lambda mu, n: extreme_measure(n, 0, mu.q) if n == 2 else real(mu, n),
     "decomposition           25 checks  FAIL",
     "delta mixture mismatch at n=2, n1=1, q=1/2"),
]


@pytest.mark.parametrize(
    "module,name,corrupted,fail_line,example", SUITE_FAILURES,
    ids=[getattr(case, "id", None) or case[1] for case in SUITE_FAILURES],
)
def test_verify_all_names_each_suites_first_counterexample(
    monkeypatch, capsys, module, name, corrupted, fail_line, example
):
    # one corrupted library function per case; its suite stops at the first
    # failing check, whose count and description are printed
    monkeypatch.setattr(module, name, corrupted(getattr(module, name)))
    code, out, _ = run_cli(capsys, "verify-all", "--max-n", "4", "--q", "1/2,2/3")
    assert code == 1
    assert f"{fail_line}\n  first counterexample: {example}\n" in out


def test_verify_all_bad_q(capsys):
    code, _, err = run_cli(capsys, "verify-all", "--max-n", "2", "--q", "3/2")
    assert code == 2
    # a size whose suites would run for minutes (13) or days (past the
    # dense-table limit) is bad input, not a failed check, refused at once
    for max_n in ("13", str(measures.MAX_DENSE_N + 1)):
        start = time.monotonic()
        code, _, err = run_cli(capsys, "verify-all", "--max-n", max_n, "--q", "1/2")
        assert time.monotonic() - start < 20
        assert code == 2
        assert err.startswith("error: max-n must be in 0..")


def test_suite_result_counts_and_keeps_the_first_failure():
    from qexchange.verify import SuiteResult, _first_failure

    resumed = []

    def failing():
        yield True, lambda: pytest.fail("described a passing check")
        yield False, lambda: "first"
        resumed.append(True)
        yield False, lambda: pytest.fail("described a later check")

    result = _first_failure("suite", failing())
    assert result == SuiteResult("suite", 2, "first")  # the failing check is counted
    assert not result.ok and not resumed
    passing = _first_failure("suite", iter([(True, lambda: pytest.fail("described a pass"))] * 3))
    assert passing == SuiteResult("suite", 3) and passing.ok and passing.failure is None


def test_exact_outputs_keep_their_digests(tmp_path, capsys):
    # the reference outputs of the library, byte for byte, each within a minute;
    # the benchmark checks its own runs against the sweep and verify-all digests
    reference = json.loads((Path(__file__).resolve().parent.parent / "bench" / "reference.json").read_text())
    bench = reference["default"]["sweep-cold"]

    def within_a_minute(run, *args):
        start = time.monotonic()
        result = run(*args)
        assert time.monotonic() - start < 60, args
        return result

    measure = str(tmp_path / "m.json")
    large = str(tmp_path / "m180.json")
    for path, n, seed in ((measure, "64", "0"), (large, "180", "1")):
        argv = ("random-measure", "--n", n, "--q", "2/3", "--seed", seed, "--out", path)
        assert within_a_minute(run_cli, capsys, *argv)[0] == 0
    top = tmp_path / "e200.json"  # extreme(200, 200): one level, low = k = 200
    top.write_text(json.dumps({"n": 200, "q": "2/3", "base": ["0"] * 200 + ["1"]}))
    rule_sweep = ["sweep", "--q", "1/2", "--k", "2", "--n", "2..40"]
    cases = [
        (["sweep", "--q", "2/3", "--k", "3", "--n", "3..200", "--n1", "half"], bench["stdout_sha256"]),
        (["decompose", measure, "--k", "4"],
         "56ca2a15e2c5d2cfb036cad5d0e8c063895b9b0cb014b66dd2f4e1f17d186bc1"),
        (["decompose", large, "--k", "8"],
         "1cfdf99d49bf63db424d8ed6c5eb96db4fc5f56d4199901af2b7c08eec11be2e"),
        (["verify-all", "--max-n", "8"], bench["verify_stdout_sha256"]),
        (["verify-all", "--max-n", "6", "--q", "1/2,2/3"],
         "8a3cadc9a1be7591ad50a5c053a230de58269af4696fe50b35267e485a325ce7"),
        (["qbinom", "1000", "2", "--q", "2/3"],
         "e316657c7188f94e4b27a513e90b59702f9615796138f86d8203d83ee47420f5"),
        (["distance", "--n", "400", "--n1", "0", "--k", "400", "--q", "2/3"],
         "550c291a433f99390c0d99081f19755eedc2c83154f0283b96999a495d4228a9"),
        (["decompose", str(top), "--k", "200"],
         "43c38ce4112bfa3fbe776808b282410069ae1ffbdc943840c80024b2644f7bdc"),
        (["distance", "--n", "200", "--n1", "200", "--k", "200", "--q", "2/3"],
         "de85fadbdf1c5c29b72c01c7097503a5dbd6bdf2257f06fbebb9e075a07bb03f"),
        # each n1 rule, and the level rule in every format
        (rule_sweep + ["--n1", "equal"], "8290ac9bf1288c901ae97ac27b35b3743f1d4bf89f1dd5937f906a6036f68565"),
        (rule_sweep + ["--n1", "half"], "bbe926648a714079d629d754905f6a2ee0f6513060d9879741bcf73e9f301337"),
        (rule_sweep + ["--n1", "fixed:1"], "0ddd3d830ee5a388dbfafdd4fafddd2c8f1fad77795d8970271f6298df0d0a60"),
        (rule_sweep + ["--n1", "fixed:1", "--format", "json"],
         "a763fbe07409845ff141dbbcbbc3836ac97bb4a838ca31b6821330dc3f62d438"),
        (rule_sweep + ["--n1", "fixed:1", "--format", "table"],
         "1b861529e889b0cac08cb0310490061b376e4fe7366d97ea4eed37a034273efa"),
    ]
    for argv, digest in cases:
        code, out, _ = within_a_minute(run_cli, capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), argv
    # the exact projection of a measure past the sizes a dense table can check
    p = within_a_minute(projection.project, random_q_exch(150, Fraction(2, 3), 0), 4)
    got = hashlib.sha256("".join(f"{x}\n" for x in p.base).encode()).hexdigest()
    assert got == "1ed47aa12902d96fac59343796c5ab49d48ea79f766b4b478ec09eaae47fd079"


def test_cli_start_up_skips_modules_a_sweep_never_uses():
    # -S keeps site-packages out, and with it what their .pth files import
    env = src_env()
    code = "import sys, qexchange.cli; print(' '.join(sys.modules))"
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "qexchange.cli" in loaded
    assert not loaded & {
        "dataclasses", "inspect", "json", "typing", "qexchange.projection", "qexchange.verify", "random"
    }
    # the suites, imported only by verify-all, still load in a fresh interpreter
    result = subprocess.run(
        [sys.executable, "-m", "qexchange", "verify-all", "--max-n", "2", "--q", "1/2"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert "ALL OK" in result.stdout


def test_package_import_loads_no_submodule():
    code = "import sys, qexchange; print(' '.join(sys.modules))"
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=src_env())
    assert result.returncode == 0, result.stderr
    assert [m for m in result.stdout.split() if m.startswith("qexchange.")] == []


def test_package_surface_is_its_export_table():
    import qexchange

    namespace = {}
    exec("from qexchange import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qexchange.__all__)
    assert len(qexchange.__all__) == 39
    for name in qexchange.__all__:
        home = sys.modules[qexchange._HOME[name]]
        assert getattr(qexchange, name) is getattr(home, name)
    assert set(qexchange.__all__) <= set(dir(qexchange))
    with pytest.raises(AttributeError, match="no_such_name"):
        qexchange.no_such_name  # noqa: B018


def test_package_reads_a_patched_name_from_its_home_module(monkeypatch):
    # the benchmark's tracer patches functions in their home modules only
    import qexchange

    def patched(m, k):
        return Fraction(0)

    monkeypatch.setattr(definetti, "approx_error", patched)
    assert qexchange.approx_error is patched
    monkeypatch.undo()
    assert qexchange.approx_error is not patched


def test_public_annotations_resolve():
    import inspect
    import typing

    import qexchange

    values = [getattr(qexchange, name) for name in qexchange.__all__]
    for cls in filter(inspect.isclass, values):
        for base in cls.__mro__:  # inherited methods, such as the private records' to_json
            for attr in vars(base).values():
                # the function behind a classmethod, staticmethod or property
                values.append(getattr(attr, "__func__", getattr(attr, "fget", attr)))
    functions = [value for value in values if inspect.isfunction(value)]
    assert MeasureSampler.draw in functions and QExchMeasure.from_json.__func__ in functions
    for fn in functions:
        typing.get_type_hints(fn)


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "qexchange", "qbinom", "4", "2", "--q", "1/2"],
        capture_output=True,
        text=True,
        cwd=str(Path(__file__).resolve().parent.parent),
        env=src_env(),
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "35/16"


UNWRITABLE_CASES = [  # (argv, the stream that is full, or a closed stdout)
    (["qbinom", "4", "2", "--q", "1/2"], "stdout"),
    (["distance", "--n", "2", "--n1", "1", "--k", "1", "--q", "1/2"], "stdout"),
    (["sweep", "--q", "2/3", "--k", "3", "--n", "3..200", "--n1", "half"], "stdout"),
    (["decompose", "{measure}", "--k", "2"], "stdout"),
    (["random-measure", "--n", "64", "--q", "2/3"], "stdout"),
    (["verify-all", "--max-n", "2", "--q", "1/2"], "stdout"),
    (["--help"], "stdout"),
    (["sweep", "--help"], "stdout"),
    (["sweep", "--q", "2/3", "--k", "3", "--n", "3..20", "--n1", "half", "--fit-slope"], "stderr"),
    (["qbinom", "4", "2", "--q", "0.5"], "stderr"),
    (["qbinom", "4"], "stderr"),
    (["qbinom", "4", "2", "--q", "1/2"], "closed"),  # stdout closed before the start
]


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs the /dev/full device")
@pytest.mark.parametrize(
    "argv,full", UNWRITABLE_CASES, ids=[f"argv{i}" for i in range(len(UNWRITABLE_CASES))]
)
def test_unwritable_stdout_is_usage_error(tmp_path, argv, full):
    # a full stdout or stderr is bad output, not a failed check (1) or a failed exit flush (120)
    measure_path = tmp_path / "m.json"
    measure_path.write_text(random_q_exch(4, HALF, 0).to_json())
    argv = [a.format(measure=measure_path) for a in argv]
    env = src_env("PYTHONUNBUFFERED")  # buffered stdout
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    with open("/dev/full", "w") as dev_full:
        if full == "closed":  # the interpreter starts with sys.stdout None
            streams["preexec_fn"] = lambda: os.close(1)
        else:
            streams[full] = dev_full
        result = subprocess.run(
            [sys.executable, "-m", "qexchange", *argv], text=True, env=env, **streams
        )
    assert result.returncode == 2
    if full != "stderr":
        assert result.stderr.startswith("error: cannot write stdout")
        assert "Traceback" not in result.stderr


# ---------------------------------------------------------------------------
# exit-code contract over generated argv and measure files
# ---------------------------------------------------------------------------

Q_TEXTS = ("1/2", "2/3", "0/1", "1/1", "3/2", "1/0", "0.5", "abc", "")
small_ints = st.integers(-2, 12).map(str)
LONG = "1" * (sys.get_int_max_str_digits() + 1)  # more digits than an int is read with
HUGE = "9" * 4000  # read as an int, and far past every size limit
sizes = st.sampled_from([*range(-2, 13), 200, HUGE, LONG]).map(str)  # n = 200: values past 4300 digits
q_texts = st.sampled_from(Q_TEXTS)
json_scalars = (
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | q_texts | st.text(max_size=4)
)
measure_texts = st.one_of(
    st.builds(
        lambda n, q, seed: random_q_exch(n, q, seed).to_json(),
        st.integers(0, 8), st.sampled_from([HALF, Fraction(2, 3)]), st.integers(0, 5),
    ),
    st.fixed_dictionaries(
        {"n": json_scalars, "q": json_scalars, "base": st.lists(json_scalars, max_size=6)}
    ).map(json.dumps),
    st.recursive(json_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=6).map(json.dumps),
    st.text(max_size=12),
)


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(
        ["qbinom", "distance", "sweep", "decompose", "random-measure", "verify-all"]
    ))
    n, k, n1, q = draw(sizes), draw(small_ints), draw(small_ints), draw(q_texts)
    if command == "qbinom":
        return [command, n, k, "--q", q], None
    if command == "distance":
        return [command, "--n", n, "--n1", n1, "--k", k, "--q", q], None
    if command == "sweep":
        rule = draw(st.sampled_from(["half", "equal", f"fixed:{n1}", "bogus"]))
        argv = [command, "--q", q, "--k", k, "--n", f"{n}..{draw(sizes)}", "--n1", rule]
        return argv + draw(st.sampled_from([[], ["--fit-slope"], ["--format", "json"]])), None
    if command == "decompose":
        return [command, "measure.json", "--k", k], draw(measure_texts)
    if command == "random-measure":
        return [command, "--n", n, "--q", q, "--seed", draw(small_ints)], None
    max_n = str(draw(st.integers(-2, 2)))
    return [command, "--max-n", max_n, "--q", ",".join(draw(st.lists(q_texts, max_size=3)))], None


@settings(max_examples=200, deadline=None)
@given(cli_argv())
# a random draw reaches the sweep's int readers with a valid q only rarely
@example((["sweep", "--q", "2/3", "--k", "3", "--n", LONG], None))
@example((["sweep", "--q", "2/3", "--k", "3", "--n", f"3..{LONG}"], None))
@example((["sweep", "--q", "2/3", "--k", "3", "--n", "3..5", "--n1", f"fixed:{LONG}"], None))
# a size that is read but past the limits must not be computed with
@example((["qbinom", HUGE, "2", "--q", "2/3"], None))
@example((["distance", "--n", HUGE, "--n1", "0", "--k", "3", "--q", "2/3"], None))
@example((["sweep", "--q", "2/3", "--k", "3", "--n", f"3..{HUGE}"], None))
@example((["random-measure", "--n", HUGE, "--q", "2/3"], None))
def test_exit_codes_keep_their_meaning(case):
    # 0 ok, 1 a failed mathematical check (reported on stdout), 2 bad usage or input
    argv, measure_text = case
    out = io.StringIO()
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        if measure_text is not None:
            path = Path(tmp) / argv[1]
            path.write_text(measure_text)
            argv = [argv[0], str(path), *argv[2:]]
        code = main(argv)
    assert code in (0, 1, 2)
    assert all(len(line) <= 200 for line in err.getvalue().splitlines())
    if code == 1:
        assert {"FAIL", "VIOLATION"} & set(re.split(r"[\s,]+", out.getvalue()))


@pytest.mark.parametrize("argv, measure_text, head, length", [
    # a value read as an int but past the size limit
    (["distance", "--n", HUGE, "--n1", "0", "--k", "3", "--q", "2/3"], None,
     "error: n must be at most 1000, got 999", 4035),
    # more digits than an int is read with: a short line at once
    (["distance", "--n", "9" * 5000, "--n1", "0", "--k", "3", "--q", "2/3"], None,
     "error: cannot parse n: an integer has more than", None),
    (["decompose", "{measure}", "--k", "0"], json.dumps({"n": 0, "q": "1/2", "base": ["x" * 100_000]}),
     "error: malformed measure record: expected a fraction string", 100_078),
    (["sweep", "--q", "1/2", "--k", "1", "--n", "1..3", "--n1", "x" * 100_000], None,
     "error: unknown n1 rule 'xxx", 100_070),
    (["sweep", "--q", "1/2", "--k", "1", "--n", "1..3", "--format", "x" * 300], None,
     "qexchange sweep: error: argument --format: invalid choice: 'xxx", None),
], ids=["huge-n", "long-n", "long-scalar", "long-n1-rule", "long-format"])
def test_error_lines_are_clipped(tmp_path, capsys, argv, measure_text, head, length):
    # no error line echoes a huge value: past 200 characters it is clipped, and
    # the note names its full length (a 300-character --format is cut as well)
    path = tmp_path / "m.json"
    if measure_text is not None:
        path.write_text(measure_text)
    code = main([a.replace("{measure}", str(path)) for a in argv])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert all(len(line) <= 200 for line in err.splitlines())
    last = err.splitlines()[-1]
    assert last.startswith(head)
    if length is not None:
        assert re.search(r"\.\.\. \((\d+) characters\)$", last).group(1) == str(length)
