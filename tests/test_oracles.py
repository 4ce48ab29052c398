"""The brute-force oracles themselves get sanity checks against
independently known values, so a broken oracle cannot silently bless the
library."""

from fractions import Fraction

from qexchange import extreme_measure, to_dense

from oracles import (
    chi2_sf,
    dense_projection_table,
    literal_bernoulli_base,
    pair_statistics,
    q_binomial_row,
    suffix_sum_project,
    tv_by_subsets,
)


def test_pair_statistics_hand_cases():
    assert pair_statistics((1, 0)) == (1, 0)
    assert pair_statistics((0, 1, 0, 1)) == (1, 3)
    assert pair_statistics(()) == (0, 0)
    assert pair_statistics((1, 1, 0, 0, 0)) == (6, 0)


def test_q_binomial_row_hand_cases():
    half = Fraction(1, 2)
    assert q_binomial_row(0, half) == [1]
    # [4, 1] = 1 + q + q^2 + q^3, [4, 2] = (1 + q^2)(1 + q + q^2)
    assert q_binomial_row(4, half) == [1, Fraction(15, 8), Fraction(35, 16), Fraction(15, 8), 1]


def test_dense_projection_table_hand_case():
    # projecting the 2-bit extreme level-1 measure onto 1 bit: (1/3, 2/3)
    table = dense_projection_table(extreme_measure(2, 1, Fraction(1, 2)), 1)
    assert table == [Fraction(1, 3), Fraction(2, 3)]


def test_suffix_sum_project_against_dense_tables():
    # the level suffix sum against the dense fold of trailing coordinates
    q = Fraction(1, 2)
    assert suffix_sum_project(extreme_measure(2, 1, q), 1).base == (Fraction(1, 3), Fraction(2, 3))
    for n in range(7):
        for n1 in range(n + 1):
            m = extreme_measure(n, n1, q)
            for k in range(n + 1):
                assert list(to_dense(suffix_sum_project(m, k)).weights) == dense_projection_table(m, k)


def test_tv_by_subsets_hand_case():
    a = to_dense(extreme_measure(2, 0, Fraction(1, 2)))
    b = to_dense(extreme_measure(2, 2, Fraction(1, 2)))
    assert tv_by_subsets(a, b) == 2


def test_literal_bernoulli_base_hand_case():
    # n = 2, x = q: (q^2, 1 - q, 0)
    q = Fraction(1, 2)
    assert literal_bernoulli_base(2, 1, q) == (q**2, 1 - q, Fraction(0))


def test_chi2_sf_against_published_tables():
    # dof, critical value, tail probability
    table = [
        (1, 3.841458820694124, 0.05),
        (2, 5.991464547107979, 0.05),
        (6, 12.591587243743977, 0.05),
        (6, 16.811893829770927, 0.01),
        (10, 23.209251158954356, 0.01),
    ]
    for dof, crit, tail in table:
        assert abs(chi2_sf(crit, dof) - tail) < 1e-6
    assert chi2_sf(0.0, 4) == 1.0
    assert chi2_sf(1000.0, 4) < 1e-100
