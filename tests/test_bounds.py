import math
from fractions import Fraction

import pytest

from qexchange import (
    DistanceReport,
    RateSweepConfig,
    RateViolationError,
    extreme_vs_bernoulli_distance,
    fit_log_slope,
    lower_constant,
    tech_lemma_lhs_rhs,
    upper_constant,
    verify_rate,
)
from qexchange import bounds as bounds_module
from qexchange import qcore
from oracles import upper_constant_double_sum

HALF = Fraction(1, 2)
QS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_upper_constant_frozen_values():
    assert upper_constant(0, HALF) == 0
    assert upper_constant(1, HALF) == 4
    # hand-tallied from the two case bounds: B1 = 12 and B2 = (12, 8, 0)
    # weighted by the level binomials (1, 3/2, 1), and the k = 3 analogue
    assert upper_constant(2, HALF) == 42
    assert upper_constant(3, HALF) == 378
    with pytest.raises(ValueError):
        upper_constant(-1, HALF)


@pytest.mark.parametrize(
    "q", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(9, 10), Fraction(3, 7)]
)
def test_upper_constant_matches_double_sum(q):
    # the prefix sums against the per-level sums they replace
    for k in range(41):
        assert upper_constant(k, q) == upper_constant_double_sum(k, q)


def test_lower_constant_frozen_values():
    assert lower_constant(1, HALF) == Fraction(1, 2)
    assert lower_constant(2, HALF) == Fraction(3, 4)
    for q in QS:
        assert lower_constant(1, q) == 1 - q
    with pytest.raises(ValueError):
        lower_constant(0, HALF)


def test_constants_do_not_depend_on_n():
    # pure functions of (k, q); calling twice with unrelated state is identical
    assert upper_constant(3, Fraction(1, 3)) == upper_constant(3, Fraction(1, 3))
    assert lower_constant(4, Fraction(2, 3)) == lower_constant(4, Fraction(2, 3))


def test_sharpness_consistency():
    for q in QS:
        for k in range(1, 7):
            assert lower_constant(k, q) <= upper_constant(k, q)


def test_upper_bound_dominates_exact_grid():
    # every projection width up to n itself for small n, then k <= 4 beyond
    for q in QS:
        for n in range(13):
            for k in range((n if n <= 10 else 4) + 1):
                cap = upper_constant(k, q) * q**n
                for n1 in range(n + 1):
                    assert extreme_vs_bernoulli_distance(n, n1, k, q) <= cap


def test_lower_bound_holds_for_deep_levels():
    for q in QS:
        for n in range(1, 13):
            for k in range(1, (n if n <= 10 else 4) + 1):
                floor = lower_constant(k, q) * q**n
                for n1 in range(k, n + 1):
                    assert extreme_vs_bernoulli_distance(n, n1, k, q) >= floor


def test_lower_bound_example():
    assert lower_constant(1, HALF) * HALF**2 == Fraction(1, 8)
    assert extreme_vs_bernoulli_distance(2, 1, 1, HALF) == Fraction(1, 3) >= Fraction(1, 8)


# ---------------------------------------------------------------------------
# sharpness inequality
# ---------------------------------------------------------------------------

def test_tech_lemma_examples():
    lhs, rhs = tech_lemma_lhs_rhs(1, 1, HALF)
    assert (lhs, rhs) == (Fraction(1), Fraction(1, 2))
    lhs, rhs = tech_lemma_lhs_rhs(5, 2, HALF)
    assert lhs == Fraction(47, 465)
    assert rhs == Fraction(3, 32)
    assert lhs >= rhs


def test_tech_lemma_rhs_is_geometric_sum():
    for q in QS:
        for n in range(1, 13):
            for k in range(1, n + 1):
                _, rhs = tech_lemma_lhs_rhs(n, k, q)
                assert rhs == sum(q ** (n - i) for i in range(k))


def test_tech_lemma_inequality_on_grid():
    for q in QS:
        for n in range(1, 13):
            for k in range(1, n + 1):
                lhs, rhs = tech_lemma_lhs_rhs(n, k, q)
                assert lhs >= rhs


def test_tech_lemma_preconditions():
    with pytest.raises(ValueError):
        tech_lemma_lhs_rhs(2, 3, HALF)
    with pytest.raises(ValueError):
        tech_lemma_lhs_rhs(3, 0, HALF)


# ---------------------------------------------------------------------------
# sweep configs
# ---------------------------------------------------------------------------

def test_config_rules():
    # an int rule is one level for every n, from 0 up to n_start
    for rule, n1s in [("equal", [2, 3, 4, 5]), ("half", [1, 1, 2, 2]), (0, [0] * 4), (2, [2] * 4)]:
        cfg = RateSweepConfig(q=HALF, k=1, n_start=2, n_end=5, n1_rule=rule)
        assert cfg.grid() == list(zip(range(2, 6), n1s)), rule


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(q=HALF, k=1, n_start=5, n_end=3),
        dict(q=HALF, k=3, n_start=2, n_end=6),
        dict(q=HALF, k=1, n_start=2, n_end=6, n1_rule=3),  # a level past n_start
        dict(q=HALF, k=1, n_start=2, n_end=6, n1_rule="fixed"),
        dict(q=HALF, k=1, n_start=2, n_end=6, n1_rule="list"),
        dict(q=HALF, k=1, n_start=2, n_end=6, n1_rule="nope"),
        dict(q=Fraction(3, 2), k=1, n_start=2, n_end=6),
        dict(q=HALF, k=1, n_start=2, n_end=6, n1_rule=-1),
        dict(q=HALF, k=1, n_start=2, n_end=6, n1_rule=True),  # a bool is not a level
        dict(q=HALF, k=1, n_start=2, n_end=6, n1_rule="2"),
    ],
)
def test_config_rejects_bad_input(kwargs):
    with pytest.raises(ValueError):
        RateSweepConfig(**kwargs)


# ---------------------------------------------------------------------------
# verify_rate
# ---------------------------------------------------------------------------

def test_verify_rate_equal_rule():
    reports = verify_rate(RateSweepConfig(q=HALF, k=1, n_start=1, n_end=16))
    assert len(reports) == 16
    assert reports[0].distance == 1  # n = n1 = k = 1 gives 2q
    assert all(r.bounds_ok for r in reports)
    assert [r.n for r in reports] == list(range(1, 17))


def test_verify_rate_half_rule_lower_bound_presence():
    reports = verify_rate(RateSweepConfig(q=HALF, k=3, n_start=3, n_end=20, n1_rule="half"))
    for r in reports:
        assert (r.lower is not None) == (r.n1 >= 3)


def test_verify_rate_zero_level_rows():
    reports = verify_rate(RateSweepConfig(q=HALF, k=2, n_start=2, n_end=8, n1_rule=0))
    assert [(r.n, r.n1) for r in reports] == [(n, 0) for n in range(2, 9)]
    for r in reports:
        assert r.distance == 0
        assert r.lower is None
        assert r.upper >= 0


def test_verify_rate_raises_on_violation(monkeypatch):
    monkeypatch.setattr(bounds_module, "upper_constant", lambda k, q: q * 0)
    with pytest.raises(RateViolationError) as excinfo:
        verify_rate(RateSweepConfig(q=HALF, k=1, n_start=1, n_end=6))
    err = excinfo.value
    assert err.report.n == 1
    assert len(err.reports) == 6
    assert "upper bound violated" in str(err)


def test_verify_rate_cold_and_warm_cache_agree(monkeypatch):
    cfg = RateSweepConfig(q=HALF, k=1, n_start=1, n_end=80)
    qcore._qbinom_row.cache_clear()
    cold = verify_rate(cfg)
    assert verify_rate(cfg) == cold
    # sweeps run serially; the old worker-count variable is ignored, even malformed
    monkeypatch.setenv("QEXCHANGE_WORKERS", "abc")
    assert verify_rate(cfg) == cold


# ---------------------------------------------------------------------------
# slope fit
# ---------------------------------------------------------------------------

def _geometric_reports(q: Fraction, count: int) -> list[DistanceReport]:
    return [
        DistanceReport(n=n, k=1, n1=n, q=q, distance=q**n, upper=4 * q**n)
        for n in range(1, count + 1)
    ]


def test_fit_log_slope_exact_geometric():
    slope = fit_log_slope(_geometric_reports(HALF, 8))
    assert slope == pytest.approx(math.log(0.5), abs=1e-12)


def test_fit_log_slope_on_real_sweeps():
    reports = verify_rate(RateSweepConfig(q=HALF, k=1, n_start=10, n_end=20))
    assert fit_log_slope(reports) == pytest.approx(math.log(0.5), abs=0.05)
    reports = verify_rate(
        RateSweepConfig(q=Fraction(1, 3), k=2, n_start=12, n_end=22, n1_rule="half")
    )
    assert fit_log_slope(reports) == pytest.approx(math.log(1 / 3), abs=0.05)


def test_fit_log_slope_below_float_range():
    # float(2**-1070) rounds to 0.0, so the log must come from the exact parts
    reports = [
        DistanceReport(n=n, k=1, n1=n, q=HALF, distance=HALF**n, upper=4 * HALF**n)
        for n in (1070, 1080, 1090)
    ]
    assert fit_log_slope(reports) == pytest.approx(math.log(0.5), abs=1e-12)


def test_fit_log_slope_input_validation():
    with pytest.raises(ValueError):
        fit_log_slope(_geometric_reports(HALF, 2))
    zeroes = [
        DistanceReport(n=n, k=1, n1=0, q=HALF, distance=Fraction(0), upper=Fraction(1))
        for n in range(1, 9)
    ]
    with pytest.raises(ValueError):
        fit_log_slope(zeroes)
    mixed_k = _geometric_reports(HALF, 4) + [
        DistanceReport(n=9, k=2, n1=9, q=HALF, distance=HALF**9, upper=Fraction(1))
    ]
    with pytest.raises(ValueError):
        fit_log_slope(mixed_k)
