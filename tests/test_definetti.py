import math
from fractions import Fraction

import pytest

from qexchange import (
    DistanceReport,
    MixingMeasure,
    QExchMeasure,
    approx_error,
    decompose,
    extreme_measure,
    extreme_vs_bernoulli_distance,
    is_q_exchangeable,
    mixture,
    project,
    project_bernoulli_closed_form,
    project_extreme_closed_form,
    q_bernoulli,
    q_binomial,
    random_q_exch,
    to_dense,
    tv_distance,
)
from qexchange.definetti import _level_sums
from oracles import materialised_approx_error, q_binomial_row

HALF = Fraction(1, 2)
QS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def test_decompose_extreme_is_point_mass():
    for n in range(6):
        for n1 in range(n + 1):
            mu = decompose(extreme_measure(n, n1, HALF))
            assert mu.alpha == tuple(Fraction(int(i == n1)) for i in range(n + 1))


def test_decompose_bernoulli_example():
    mu = decompose(q_bernoulli(2, 1, HALF))
    assert mu.alpha == (Fraction(1, 4), Fraction(3, 4), Fraction(0))


def test_decompose_total_mass():
    for seed in range(5):
        mu = decompose(random_q_exch(9, HALF, seed))
        assert sum(mu.alpha) == 1


def test_decompose_round_trip():
    for q in QS:
        for n in range(8):
            for seed in range(4):
                m = random_q_exch(n, q, seed)
                mu = decompose(m)
                extremes = [extreme_measure(n, i, q) for i in range(n + 1)]
                rebuilt = tuple(
                    sum(a * e.base[j] for a, e in zip(mu.alpha, extremes))
                    for j in range(n + 1)
                )
                assert rebuilt == m.base


# ---------------------------------------------------------------------------
# mixture
# ---------------------------------------------------------------------------

def test_mixture_of_delta_is_bernoulli():
    for n1 in range(4):
        point = tuple(int(i == n1) for i in range(4))
        mu = MixingMeasure(3, HALF, point)
        assert mixture(mu, 3) == q_bernoulli(3, n1, HALF)


def test_mixture_two_point_example():
    mu = MixingMeasure(1, HALF, (Fraction(1, 2), Fraction(1, 2)))
    m = mixture(mu, 1)
    assert m.base[0] == (1 + HALF) / 2


def test_mixture_output_is_q_exchangeable():
    for seed in range(3):
        mu = decompose(random_q_exch(6, HALF, seed))
        mixed = mixture(mu, 6)
        assert is_q_exchangeable(to_dense(mixed), HALF) == (True, None)


def test_mixture_on_larger_cube():
    mu = MixingMeasure(2, HALF, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
    m = mixture(mu, 5)
    assert m.n == 5
    with pytest.raises(ValueError):
        mixture(mu, 1)


def test_mixing_measure_validation():
    with pytest.raises(ValueError, match="mass"):
        MixingMeasure(1, HALF, (Fraction(1, 2), Fraction(1, 4)))
    with pytest.raises(ValueError, match="nonnegative"):
        MixingMeasure(1, HALF, (Fraction(3, 2), Fraction(-1, 2)))


def test_mixing_json_round_trip():
    mu = decompose(random_q_exch(5, Fraction(1, 3), 8))
    assert MixingMeasure.from_json(mu.to_json()) == mu
    with pytest.raises(ValueError, match="malformed"):
        MixingMeasure.from_json("[]")


# ---------------------------------------------------------------------------
# the central distance
# ---------------------------------------------------------------------------

def test_distance_examples():
    assert extreme_vs_bernoulli_distance(2, 1, 1, HALF) == Fraction(1, 3)
    for q in QS:
        assert extreme_vs_bernoulli_distance(1, 1, 1, q) == 2 * q
        for n in range(5):
            for k in range(n + 1):
                assert extreme_vs_bernoulli_distance(n, 0, k, q) == 0


def test_distance_matches_tv_of_projections():
    for q in (HALF, Fraction(1, 3)):
        for n in range(9):
            for n1 in range(n + 1):
                e = extreme_measure(n, n1, q)
                nu = q_bernoulli(n, n1, q)
                for k in range(n + 1):
                    assert extreme_vs_bernoulli_distance(n, n1, k, q) == tv_distance(
                        project(e, k), project(nu, k)
                    )


def test_distance_matches_closed_form_level_sum():
    # the integer level sums against the public closed forms, which stay the reference
    for q in (HALF, Fraction(2, 3)):
        for n in range(41):
            for n1 in range(n + 1):
                for k in range(min(n, 4) + 1):
                    reference = sum(
                        q_binomial(k, k1, q) * abs(
                            project_extreme_closed_form(n, n1, k, k1, q)
                            - project_bernoulli_closed_form(n1, k, k1, q)
                        )
                        for k1 in range(k + 1)
                    )
                    assert extreme_vs_bernoulli_distance(n, n1, k, q) == reference


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)])
@pytest.mark.parametrize("n", [64, 200])
def test_level_gaps_against_binomial_ratio(n, q):
    # the Pochhammer-ratio level sums of a point mass against
    # [n - k, n1 - k1]_q / [n, n1]_q from product-formula rows, corners
    # (n1 < k1 or n1 - k1 > n - k) included, with the q-Bernoulli term
    # subtracted (the distances) and left out (project)
    whole = q_binomial_row(n, q)
    for k in (0, 1, 4, 12):
        inner, small = q_binomial_row(n - k, q), q_binomial_row(k, q)
        for n1 in sorted({0, 1, k - 1, k, n // 2, n - k, n - k + 1, n - 1, n} & set(range(n + 1))):
            extreme, gap = [], []
            for k1 in range(k + 1):
                ratio = inner[n1 - k1] / whole[n1] if 0 <= n1 - k1 <= n - k else 0
                bernoulli = math.prod(1 - q ** (n1 - i) for i in range(k1))
                weight = small[k1] * q ** ((n1 - k1) * (k - k1))
                extreme.append(weight * ratio)
                gap.append(weight * (ratio - bernoulli))
            for subtract, expected in ((True, gap), (False, extreme)):
                levels, d = _level_sums(n, k, q, [(n1, 1)], bernoulli=subtract)
                assert [Fraction(g, d) for g in levels] == expected, (k, n1, subtract)


def test_distance_preconditions():
    with pytest.raises(ValueError):
        extreme_vs_bernoulli_distance(3, 1, 4, HALF)
    with pytest.raises(ValueError):
        extreme_vs_bernoulli_distance(3, 4, 2, HALF)


# ---------------------------------------------------------------------------
# approx_error
# ---------------------------------------------------------------------------

def test_approx_error_of_extreme_equals_pair_distance():
    cases = [(n, range(n + 1), HALF) for n in range(7)]
    cases += [(64, (0, 1, 4, 12, 64), q) for q in (HALF, Fraction(2, 3))]
    for n, ks, q in cases:
        for n1 in range(n + 1):
            e = extreme_measure(n, n1, q)
            for k in ks:
                assert approx_error(e, k) == extreme_vs_bernoulli_distance(n, n1, k, q), (n, n1, k, q)


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(2, 3), Fraction(3, 7)])
def test_approx_error_matches_materialised_mixture(q):
    for n in range(13):
        measures = [random_q_exch(n, q, seed) for seed in range(3)]
        measures += [extreme_measure(n, n1, q) for n1 in range(n + 1)]
        measures += [q_bernoulli(n, n1, q) for n1 in range(n + 1)]
        for m in measures:
            for k in range(n + 1):
                assert approx_error(m, k) == materialised_approx_error(m, k)


@pytest.mark.parametrize("seed", range(4))
def test_approx_error_matches_materialised_mixture_at_n64(seed):
    m = random_q_exch(64, Fraction(2, 3), seed)
    assert approx_error(m, 4) == materialised_approx_error(m, 4)


def convex_combination(weights: dict[int, Fraction], n: int, q: Fraction) -> QExchMeasure:
    """``sum_n1 weights[n1] * extreme(n, n1)``, whose level masses are the weights."""
    base = [Fraction(0)] * (n + 1)
    for n1, w in weights.items():
        base[n1] = w * extreme_measure(n, n1, q).base[n1]
    return QExchMeasure(n, q, tuple(base))


# level masses of coprime denominators (two masses that sum to 1 share
# theirs), so the common denominator of ``approx_error`` is a true lcm and not
# one shared ``total``; in the last, no single denominator is the lcm 30
COPRIME_WEIGHTS = (
    (Fraction(1, 3), Fraction(2, 3)),
    (Fraction(1, 3), Fraction(2, 7), Fraction(8, 21)),
    (Fraction(1, 2), Fraction(1, 5), Fraction(3, 10)),
    (Fraction(1, 6), Fraction(1, 10), Fraction(1, 15), Fraction(2, 3)),
)


@pytest.mark.parametrize("q", [Fraction(3, 7), Fraction(999, 1000)])
def test_approx_error_with_coprime_level_mass_denominators(q):
    for n in range(1, 11):
        for weights in COPRIME_WEIGHTS:
            step = n // len(weights) + 1
            for shift in range(n + 1):  # evenly spaced levels, rotated through 0..n
                mix = {(shift + i * step) % (n + 1): w for i, w in enumerate(weights)}
                if len(mix) < len(weights):
                    continue
                m = convex_combination(mix, n, q)
                assert decompose(m).alpha == tuple(mix.get(i, 0) for i in range(n + 1))
                for k in range(n + 1):
                    assert approx_error(m, k) == materialised_approx_error(m, k), (n, mix, k)


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(9, 10), Fraction(999, 1000)])
def test_approx_error_with_mass_above_n_minus_k(q):
    # levels above n - k have low = k - (n - n1) > 0; with level 0 massed too,
    # the common denominator takes its Pochhammer prefix from level 0 and its
    # power of b from level n
    for n in (8, 12, 16):
        for k in (n - 2, n - 1, n):
            above = (n - k + 1, (n - k + 1 + n) // 2, n)
            for levels, weights in ((above, COPRIME_WEIGHTS[1]), ((0, *above[::2]), COPRIME_WEIGHTS[2])):
                m = convex_combination(dict(zip(levels, weights)), n, q)
                assert approx_error(m, k) == materialised_approx_error(m, k), (n, k, levels)


def test_approx_error_with_coprime_level_mass_denominators_at_n64():
    q = Fraction(2, 3)
    m = convex_combination(dict(zip((5, 32, 60), COPRIME_WEIGHTS[1])), 64, q)
    assert approx_error(m, 4) == materialised_approx_error(m, 4)


def test_approx_error_vanishes_at_k_zero():
    for seed in range(5):
        m = random_q_exch(8, HALF, seed)
        assert approx_error(m, 0) == 0


def test_approx_error_triangle_bound():
    # convexity: the error is at most the alpha-weighted pairwise distances
    for q in (HALF, Fraction(2, 3)):
        for seed in range(4):
            m = random_q_exch(7, q, seed)
            mu = decompose(m)
            for k in range(8):
                bound = sum(
                    a * extreme_vs_bernoulli_distance(7, i, k, q)
                    for i, a in enumerate(mu.alpha)
                )
                assert approx_error(m, k) <= bound


def test_approx_error_preconditions():
    with pytest.raises(ValueError):
        approx_error(random_q_exch(3, HALF, 0), 4)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_distance_report_fields():
    r = DistanceReport(n=2, k=1, n1=1, q=HALF, distance=Fraction(1, 3), upper=Fraction(1), lower=Fraction(1, 8))
    assert r.bounds_ok
    assert r.dist_over_qn == Fraction(4, 3)
    bad = DistanceReport(n=2, k=1, n1=1, q=HALF, distance=Fraction(2), upper=Fraction(1))
    assert not bad.bounds_ok
    low = DistanceReport(n=2, k=1, n1=1, q=HALF, distance=Fraction(0), upper=Fraction(1), lower=Fraction(1, 8))
    assert not low.bounds_ok
