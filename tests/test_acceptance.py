"""Acceptance suite: one test per release criterion, exact unless stated.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; a failing criterion fails its test with the counterexample in the
assertion message.  Every inequality below is proven, so any failure is a
build-stopping defect, not flakiness; the only tolerance-bearing checks are
the slope fit (criterion 6) and the sampler goodness of fit (criterion 9).
"""

import math
import random
from fractions import Fraction

from qexchange import (
    DenseMeasure,
    MeasureSampler,
    RateSweepConfig,
    Word,
    approx_error,
    block_word,
    decompose,
    enumerate_level,
    extreme_measure,
    extreme_vs_bernoulli_distance,
    fit_log_slope,
    inversions,
    coinversions,
    lower_constant,
    mixture,
    project,
    project_bernoulli_closed_form,
    project_extreme_closed_form,
    q_bernoulli,
    q_binomial,
    random_q_exch,
    tech_lemma_lhs_rhs,
    to_dense,
    tv_distance,
    upper_constant,
    verify_rate,
)
from oracles import chi2_sf, tv_by_subsets

QS3 = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))
HALF = Fraction(1, 2)


def _passed(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_qbinomial_identity():
    """Level sums of q^inversions equal the Gaussian binomial, exactly,
    for all 0 <= k <= n <= 14 and q in {1/2, 1/3, 2/3}.  Runtime < 10 s."""
    checks = 0
    for q in QS3:
        powers = [Fraction(1)]
        for _ in range(14 * 14 // 4 + 1):
            powers.append(powers[-1] * q)
        for n in range(15):
            for k in range(n + 1):
                inv_sum = Fraction(0)
                coinv_sum = Fraction(0)
                for w in enumerate_level(n, k):
                    inv_sum += powers[inversions(w)]
                    coinv_sum += powers[coinversions(w)]
                expected = q_binomial(n, k, q)
                assert inv_sum == expected, (n, k, q)
                assert coinv_sum == expected, (n, k, q)
                checks += 1
    _passed("1 q-binomial identity", f"{checks} level sums, 3 q values, n <= 14")


def test_criterion_2_exchangeability_of_all_constructions():
    """The dense table of every constructed measure, summed over its trailing
    coordinates, gives the dense table of its compact projection, for every
    leading projection and n <= 10: the marginals are the q-exchangeable
    measures that ``project`` returns.  Runtime < 30 s."""
    checks = 0

    def inventory(n, q, seeds):
        for k in range(n + 1):
            yield extreme_measure(n, k, q)
        for e in range(n + 1):
            yield q_bernoulli(n, e, q)
        for seed in seeds:
            yield random_q_exch(n, q, seed)
        for seed in range(3):
            yield mixture(decompose(random_q_exch(n, q, 1000 + seed)), n)

    for q, max_n, seeds in ((HALF, 10, range(10)), (Fraction(2, 3), 6, range(4))):
        for n in range(1, max_n + 1):
            for m in inventory(n, q, seeds):
                table = to_dense(m).weights
                for k in range(n - 1, -1, -1):  # fold out coordinate k + 1
                    table = tuple(table[p] + table[p | (1 << k)] for p in range(1 << k))
                    assert DenseMeasure(k, table) == to_dense(project(m, k)), (n, k, q, m)
                    checks += 1
    _passed("2 exchangeability", f"{checks} dense marginals against compact projections")


def test_criterion_3_projection_closed_forms_match_brute_force():
    """Closed-form projections equal explicit suffix-summed pushforwards for
    all n <= 12, all (n1, k, k1), q in {1/2, 1/3}, exactly.  Runtime < 60 s."""
    checks = 0
    for q in (Fraction(1, 2), Fraction(1, 3)):
        for n in range(13):
            for n1 in range(n + 1):
                for m, closed in (
                    (extreme_measure(n, n1, q),
                     lambda k, k1: project_extreme_closed_form(n, n1, k, k1, q)),
                    (q_bernoulli(n, n1, q),
                     lambda k, k1: project_bernoulli_closed_form(n1, k, k1, q)),
                ):
                    table = [m.q ** coinversions(Word(p, n)) * m.base[Word(p, n).ones]
                             for p in range(1 << n)]
                    dim = n
                    while True:
                        for k1 in range(dim + 1):
                            s = block_word(dim, k1)
                            assert table[s.packed] == closed(dim, k1), (n, n1, dim, k1, q)
                            checks += 1
                        if dim == 0:
                            break
                        dim -= 1
                        table = [table[p] + table[p | (1 << dim)] for p in range(1 << dim)]
    _passed("3 projection oracle", f"{checks} block-word comparisons")


def test_criterion_4_upper_rate_bound():
    """Projection distance is dominated by upper_constant(k, q) * q^n for
    n <= 18, k <= 4, all n1, q in {1/2, 1/3, 2/3}; the same cap holds for
    the mixture error of 10 random measures per n.  Exact inequalities.
    Runtime < 120 s."""
    checks = 0
    for q in QS3:
        caps = {k: upper_constant(k, q) for k in range(5)}
        for n in range(19):
            for k in range(min(n, 4) + 1):
                cap = caps[k] * q**n
                for n1 in range(n + 1):
                    d = extreme_vs_bernoulli_distance(n, n1, k, q)
                    assert d <= cap, (n, n1, k, q, d, cap)
                    checks += 1
            for seed in range(10):
                m = random_q_exch(n, q, seed)
                for k in range(min(n, 4) + 1):
                    err = approx_error(m, k)
                    assert err <= caps[k] * q**n, (n, k, q, seed)
                    checks += 1
    _passed("4 upper rate bound", f"{checks} exact upper-bound checks")


def test_criterion_5_sharpness_lower_bound():
    """For n1 >= k >= 1 on the same grid the distance is at least
    lower_constant(k, q) * q^n, and the technical inequality L >= R holds,
    all exactly."""
    checks = 0
    for q in QS3:
        for n in range(1, 19):
            for k in range(1, min(n, 4) + 1):
                floor = lower_constant(k, q) * q**n
                for n1 in range(k, n + 1):
                    d = extreme_vs_bernoulli_distance(n, n1, k, q)
                    assert d >= floor, (n, n1, k, q, d, floor)
                    checks += 1
                lhs, rhs = tech_lemma_lhs_rhs(n, k, q)
                assert lhs >= rhs, (n, k, q, lhs, rhs)
                checks += 1
    _passed("5 sharpness", f"{checks} exact lower-bound checks")


def test_criterion_6_rate_slope():
    """Exact sweeps at q = 1/2, n1 = n, n in 12..24 fit a ln-distance
    slope within 0.05 of ln(1/2) for k in {1, 2, 3}.  Runtime < 10 s."""
    target = math.log(0.5)
    slopes = []
    for k in (1, 2, 3):
        reports = verify_rate(
            RateSweepConfig(q=HALF, k=k, n_start=12, n_end=24, n1_rule="equal")
        )
        slope = fit_log_slope(reports)
        assert abs(slope - target) <= 0.05, (k, slope, target)
        slopes.append(round(slope, 5))
    _passed("6 rate slope", f"slopes {slopes} vs ln(1/2) = {target:.5f}")


def test_criterion_7_tv_factor_two_convention():
    """The L1 distance equals twice the maximum deviation over every one of
    the 2^(2^n) events, exactly, for 50 random measure pairs per n <= 3."""
    checks = 0
    for n in (1, 2, 3):
        for i in range(50):
            q = QS3[i % 3]
            a = to_dense(random_q_exch(n, q, 2 * i))
            b = to_dense(random_q_exch(n, q, 2 * i + 1))
            assert tv_distance(a, b) == tv_by_subsets(a, b), (n, i)
            checks += 1
    _passed("7 TV convention", f"{checks} subset-enumeration comparisons")


def test_criterion_8_decomposition_round_trip():
    """The alpha-weighted sum of extreme measures rebuilds the input base
    vector exactly for 100 seeded random measures with n <= 16."""
    for seed in range(100):
        n = seed % 16 + 1
        q = QS3[seed % 3]
        m = random_q_exch(n, q, seed)
        mu = decompose(m)
        extremes = [extreme_measure(n, i, q) for i in range(n + 1)]
        rebuilt = tuple(
            sum(a * e.base[j] for a, e in zip(mu.alpha, extremes))
            for j in range(n + 1)
        )
        assert rebuilt == m.base, seed
    _passed("8 decomposition round trip", "100 seeded measures, n <= 16")


def test_criterion_9_sampler_goodness_of_fit():
    """Chi-square fit of 1e5 draws against the exact table at n = 6 passes at
    the 0.01 level for at least 9 of 10 fixed seeds."""
    # oracle sanity: published chi-square critical values, dof = 6
    assert abs(chi2_sf(16.811893829770927, 6) - 0.01) < 1e-6
    assert abs(chi2_sf(12.591587243743977, 6) - 0.05) < 1e-6

    m = q_bernoulli(6, 1, HALF)
    dense = to_dense(m)
    support = {p: float(w) for p, w in enumerate(dense.weights) if w > 0}
    assert len(support) == 7
    sampler = MeasureSampler(m)
    draws = 100_000
    passes = 0
    for seed in range(10):
        rng = random.Random(seed)
        counts: dict[int, int] = {}
        escaped = False
        for _ in range(draws):
            p = sampler.draw(rng).packed
            if p not in support:
                escaped = True
                break
            counts[p] = counts.get(p, 0) + 1
        if escaped:
            continue
        stat = sum(
            (counts.get(p, 0) - draws * prob) ** 2 / (draws * prob)
            for p, prob in support.items()
        )
        if chi2_sf(stat, len(support) - 1) >= 0.01:
            passes += 1
    assert passes >= 9, f"only {passes} of 10 seeds passed"
    _passed("9 sampler fit", f"{passes}/10 seeds passed chi-square at 0.01")
