import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
    code, out, _ = run_cli(capsys, "distance", "--n", "100", "--n1", "0", "--k", "100", "--q", "9/10")
    assert code == 0 and out.endswith("PASS\n")


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
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--q", "1/2", "--k", "2", "--n", "60..70", "--n1", "half", "--mode", "float"])
    assert excinfo.value.code == 2
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


def test_decompose_missing_file(capsys):
    code, _, err = run_cli(capsys, "decompose", "/nonexistent/m.json", "--k", "1")
    assert code == 2


def test_random_measure_stdout(capsys):
    code, out, _ = run_cli(capsys, "random-measure", "--n", "3", "--q", "1/3", "--seed", "7")
    assert code == 0
    assert QExchMeasure.from_json(out) == random_q_exch(3, Fraction(1, 3), 7)


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
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    result = subprocess.run(
        [sys.executable, "-m", "qexchange", "random-measure", "--n", "190", "--q", "2/3", "--out", str(big)],
        capture_output=True, text=True, env=env,
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


SUITE_FAILURES = [  # (module, function, corrupted(real), FAIL line, first counterexample)
    (qcore, "q_binomial", lambda real: lambda n, k, q: real(n, k, q) + ((n, k) == (3, 1)),
     "qbinom-identity         33 checks  FAIL",
     "statistic sum mismatch at n=3, k=1, q=1/2: 7/4, 7/4 vs 11/4"),
    (qcore, "coinversions", lambda real: lambda w: real(w) + (str(w) == "010"),
     "qbinom-identity         31 checks  FAIL",
     "inv+coinv != ones*zeros at word 010"),
    (measures, "to_dense",
     lambda real: lambda m: measures.DenseMeasure(2, real(m).weights[::-1]) if m.n == 2 else real(m),
     "exchangeability         28 checks  FAIL",
     "swap rule broken at n=2, k=2, q=1/2, witness=(Word(packed=1, length=2), 1)"),
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
    "module,name,corrupted,fail_line,example", SUITE_FAILURES, ids=[case[1] for case in SUITE_FAILURES]
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
    # dense-table limit) is bad input, not a failed check
    for max_n in ("13", str(measures.MAX_DENSE_N + 1)):
        code, _, err = run_cli(capsys, "verify-all", "--max-n", max_n, "--q", "1/2")
        assert code == 2
        assert err.startswith("error: max-n must be in 0..")


def test_suite_result_counts_and_keeps_the_first_failure():
    from qexchange.verify import SuiteResult

    result = SuiteResult("suite")
    assert result.require(True, lambda: pytest.fail("described a passing check"))
    assert result.ok
    assert not result.require(False, lambda: "first")
    assert not result.require(False, lambda: "second")
    assert (result.name, result.checks, result.failures, result.ok) == ("suite", 3, ["first"], False)


def test_exact_outputs_keep_their_digests(tmp_path, capsys):
    # the reference outputs of the library, byte for byte
    measure = str(tmp_path / "m.json")
    assert run_cli(capsys, "random-measure", "--n", "64", "--q", "2/3", "--seed", "0", "--out", measure)[0] == 0
    large = str(tmp_path / "m180.json")
    assert run_cli(capsys, "random-measure", "--n", "180", "--q", "2/3", "--seed", "1", "--out", large)[0] == 0
    top = tmp_path / "e200.json"  # extreme(200, 200): one level, low = k = 200
    top.write_text(json.dumps({"n": 200, "q": "2/3", "base": ["0"] * 200 + ["1"]}))
    cases = [
        (["sweep", "--q", "2/3", "--k", "3", "--n", "3..200", "--n1", "half"],
         "d07e0e5534e774ead2b09cbb1126464cd05dde62e219a3626baa0c58101bf624"),
        (["decompose", measure, "--k", "4"],
         "56ca2a15e2c5d2cfb036cad5d0e8c063895b9b0cb014b66dd2f4e1f17d186bc1"),
        (["decompose", large, "--k", "8"],
         "1cfdf99d49bf63db424d8ed6c5eb96db4fc5f56d4199901af2b7c08eec11be2e"),
        (["verify-all", "--max-n", "8"],
         "685e0d9ced77f321f58ba1744a170ec5283f17a2de8bb9a75bb6463101e71e08"),
        (["qbinom", "1000", "2", "--q", "2/3"],
         "e316657c7188f94e4b27a513e90b59702f9615796138f86d8203d83ee47420f5"),
        (["distance", "--n", "400", "--n1", "0", "--k", "400", "--q", "2/3"],
         "550c291a433f99390c0d99081f19755eedc2c83154f0283b96999a495d4228a9"),
        (["decompose", str(top), "--k", "200"],
         "43c38ce4112bfa3fbe776808b282410069ae1ffbdc943840c80024b2644f7bdc"),
        (["distance", "--n", "200", "--n1", "200", "--k", "200", "--q", "2/3"],
         "de85fadbdf1c5c29b72c01c7097503a5dbd6bdf2257f06fbebb9e075a07bb03f"),
    ]
    for argv, digest in cases:
        code, out, _ = run_cli(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), argv


def test_cli_start_up_skips_modules_a_sweep_never_uses():
    # -S keeps site-packages out, and with it what their .pth files import
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
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
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    code = "import sys, qexchange; print(' '.join(sys.modules))"
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
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
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # buffered stdout
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
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
sizes = st.sampled_from([*range(-2, 13), 200]).map(str)  # n = 200: values past 4300 digits
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
def test_exit_codes_keep_their_meaning(case):
    # 0 ok, 1 a failed mathematical check (reported on stdout), 2 bad usage or input
    argv, measure_text = case
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        if measure_text is not None:
            path = Path(tmp) / argv[1]
            path.write_text(measure_text)
            argv = [argv[0], str(path), *argv[2:]]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code == 1:
        assert {"FAIL", "VIOLATION"} & set(re.split(r"[\s,]+", out.getvalue()))
