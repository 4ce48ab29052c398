import hashlib
import time
from fractions import Fraction

import pytest

from qexchange import (
    block_word,
    evaluate,
    extreme_measure,
    is_q_exchangeable,
    project,
    project_bernoulli_closed_form,
    project_extreme_closed_form,
    q_bernoulli,
    random_q_exch,
    to_dense,
    tv_distance,
)
from qexchange.cli import _exact_digits
from oracles import dense_projection_table, suffix_sum_project, tv_by_subsets

HALF = Fraction(1, 2)
QS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------

def test_project_identity_and_errors():
    m = random_q_exch(5, HALF, 0)
    assert project(m, 5) is m
    with pytest.raises(ValueError):
        project(m, 6)
    with pytest.raises(ValueError):
        project(m, -1)


def test_project_extreme_two_to_one():
    p = project(extreme_measure(2, 1, HALF), 1)
    assert evaluate(p, block_word(1, 1)) == Fraction(2, 3)
    assert evaluate(p, block_word(1, 0)) == Fraction(1, 3)


def test_project_matches_suffix_sum_oracle():
    for q in (HALF, Fraction(1, 3)):
        for n in range(9):
            for seed in range(2):
                m = random_q_exch(n, q, seed)
                for k in range(n + 1):
                    table = dense_projection_table(m, k)
                    compact = project(m, k)
                    assert table == list(to_dense(compact).weights)


def test_project_bernoulli_is_consistent_family():
    for q in (HALF, Fraction(2, 3)):
        for n in range(9):
            for exponent in range(n + 1):
                m = q_bernoulli(n, exponent, q)
                for k in range(n + 1):
                    assert project(m, k) == q_bernoulli(k, exponent, q)


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(2, 3)])
@pytest.mark.parametrize("n", [40, 150])
def test_project_matches_level_suffix_sum_past_dense_tables(n, q):
    # past MAX_DENSE_N no table can check project; the Fraction suffix sum over
    # source levels can, on random, extreme and q-Bernoulli measures
    measures = [random_q_exch(n, q, seed) for seed in range(2)]
    measures += [extreme_measure(n, n1, q) for n1 in (0, n // 3, n)] + [q_bernoulli(n, n // 2, q)]
    for i, m in enumerate(measures):
        for k in (0, 1, 4, n - 1):
            assert project(m, k) == suffix_sum_project(m, k), (i, k)
    for k in (n // 2, 3 * n // 4):  # the middle, where the recurrence takes the most steps
        assert project(measures[0], k) == suffix_sum_project(measures[0], k), k


def test_project_at_n300_keeps_its_digest():
    # the pushforward of the level-sum kernel, byte for byte: the kernel took
    # about 40 s on 2 vCPUs, summing out one coordinate at a time about 2.5 s
    start = time.monotonic()
    p = project(random_q_exch(300, Fraction(2, 3), 0), 150)
    assert time.monotonic() - start < 20
    with _exact_digits():  # entries of more than the 4300 digits str() allows
        got = hashlib.sha256("".join(f"{x}\n" for x in p.base).encode()).hexdigest()
    assert got == "0ee5a38dab078a9ec6d22cd8dce81fa14a2a887f35d3f8b3a76e8fa750c95bc3"


def test_project_composes():
    m = random_q_exch(8, HALF, 5)
    for k in range(9):
        for j in range(k + 1):
            assert project(project(m, k), j) == project(m, j)


def test_projection_preserves_q_exchangeability():
    for q in (HALF, Fraction(1, 3)):
        m = random_q_exch(7, q, 1)
        for k in range(8):
            assert is_q_exchangeable(to_dense(project(m, k)), q) == (True, None)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_extreme_closed_form_examples():
    for q in QS:
        assert project_extreme_closed_form(2, 1, 1, 1, q) == 1 / (1 + q)
        assert project_extreme_closed_form(6, 4, 0, 0, q) == 1
    assert project_extreme_closed_form(4, 2, 2, 2, HALF) == Fraction(16, 35)


def test_bernoulli_closed_form_examples():
    for q in QS:
        for n1 in range(5):
            assert project_bernoulli_closed_form(n1, 1, 0, q) == q**n1
            assert project_bernoulli_closed_form(n1, 1, 1, q) == 1 - q**n1
    assert project_bernoulli_closed_form(1, 3, 2, HALF) == 0


def test_closed_forms_match_brute_force_pushforward():
    q = HALF
    for n in range(9):
        for n1 in range(n + 1):
            e = extreme_measure(n, n1, q)
            nu = q_bernoulli(n, n1, q)
            for k in range(n + 1):
                e_table = dense_projection_table(e, k)
                nu_table = dense_projection_table(nu, k)
                for k1 in range(k + 1):
                    s = block_word(k, k1)
                    assert e_table[s.packed] == project_extreme_closed_form(n, n1, k, k1, q)
                    assert nu_table[s.packed] == project_bernoulli_closed_form(n1, k, k1, q)


def test_closed_form_out_of_range_corners_are_zero():
    # more ones requested than the suffix can hold, and k1 > n1
    assert project_extreme_closed_form(4, 3, 3, 0, HALF) == 0
    assert project_extreme_closed_form(5, 1, 2, 2, HALF) == 0
    assert project_bernoulli_closed_form(0, 4, 3, HALF) == 0


def test_closed_form_preconditions():
    with pytest.raises(ValueError):
        project_extreme_closed_form(3, 1, 4, 0, HALF)
    with pytest.raises(ValueError):
        project_extreme_closed_form(3, 4, 2, 1, HALF)
    with pytest.raises(ValueError):
        project_bernoulli_closed_form(2, 1, 2, HALF)


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------

def test_tv_distance_examples():
    e1 = project(extreme_measure(2, 1, HALF), 1)
    nu1 = project(q_bernoulli(2, 1, HALF), 1)
    assert tv_distance(e1, nu1) == Fraction(1, 3)
    assert tv_distance(e1, e1) == 0
    assert tv_distance(extreme_measure(3, 0, HALF), extreme_measure(3, 3, HALF)) == 2


def test_tv_distance_compact_equals_dense():
    a = random_q_exch(6, HALF, 1)
    b = random_q_exch(6, HALF, 2)
    expected = sum(abs(x - y) for x, y in zip(to_dense(a).weights, to_dense(b).weights))
    assert tv_distance(a, b) == expected
    assert tv_distance(to_dense(a), to_dense(b)) == expected
    assert tv_distance(a, to_dense(b)) == expected


def test_tv_distance_different_q_falls_back_to_dense():
    a = q_bernoulli(4, 1, HALF)
    b = q_bernoulli(4, 1, Fraction(1, 3))
    expected = sum(abs(x - y) for x, y in zip(to_dense(a).weights, to_dense(b).weights))
    assert tv_distance(a, b) == expected


def test_tv_distance_is_a_metric_on_random_triples():
    for seed in range(5):
        a = random_q_exch(5, HALF, 3 * seed)
        b = random_q_exch(5, HALF, 3 * seed + 1)
        c = random_q_exch(5, HALF, 3 * seed + 2)
        dab, dba = tv_distance(a, b), tv_distance(b, a)
        assert dab == dba
        assert dab >= 0
        assert tv_distance(a, c) <= dab + tv_distance(b, c)
    m = random_q_exch(5, HALF, 100)
    assert tv_distance(m, m) == 0


def test_tv_distance_factor_two_convention():
    # L1 sum equals twice the max deviation over every event
    for n in range(1, 4):
        for seed in range(4):
            a = to_dense(random_q_exch(n, HALF, 50 + 2 * seed))
            b = to_dense(random_q_exch(n, HALF, 51 + 2 * seed))
            assert tv_distance(a, b) == tv_by_subsets(a, b)


def test_tv_distance_errors():
    with pytest.raises(ValueError):
        tv_distance(random_q_exch(3, HALF, 0), random_q_exch(4, HALF, 0))
    # a float measure cannot be built, so it never reaches the distance
    with pytest.raises(TypeError):
        tv_distance(to_dense(random_q_exch(3, HALF, 0)), to_dense(random_q_exch(3, 0.5, 0)))
