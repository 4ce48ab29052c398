import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qexchange import (
    DenseMeasure,
    MeasureSampler,
    MixingMeasure,
    QExchMeasure,
    Word,
    block_word,
    decompose,
    enumerate_level,
    evaluate,
    extreme_measure,
    is_q_exchangeable,
    q_bernoulli,
    q_binomial,
    random_q_exch,
    swap_adjacent,
    to_dense,
)
from oracles import chi2_sf, literal_bernoulli_base

HALF = Fraction(1, 2)
QS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_measure_validation():
    with pytest.raises(ValueError, match="mass"):
        QExchMeasure(2, HALF, (Fraction(1, 2), Fraction(1, 2), Fraction(0)))
    with pytest.raises(ValueError, match="entries"):
        QExchMeasure(2, HALF, (Fraction(1), Fraction(0)))
    with pytest.raises(ValueError, match="nonnegative"):
        QExchMeasure(1, HALF, (Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(TypeError):
        QExchMeasure(1, HALF, (0.5, 0.5))
    with pytest.raises(TypeError):
        QExchMeasure(1, HALF, (True, 0))
    with pytest.raises(TypeError):
        QExchMeasure(1, 0.5, (HALF, HALF))
    with pytest.raises(ValueError):
        QExchMeasure(1, Fraction(2), (Fraction(1, 2), Fraction(1, 2)))
    assert QExchMeasure(1, HALF, (1, 0)).base == (Fraction(1), Fraction(0))


def test_dense_validation():
    with pytest.raises(ValueError, match="mass"):
        DenseMeasure(1, (Fraction(1, 2), Fraction(1, 4)))
    with pytest.raises(ValueError, match="2\\^n"):
        DenseMeasure(2, (Fraction(1),))
    with pytest.raises(ValueError):
        DenseMeasure(30, (Fraction(1),))
    with pytest.raises(TypeError):
        DenseMeasure(2, (0.25,) * 4)


def test_extreme_measure():
    for q in QS:
        m = extreme_measure(2, 1, q)
        assert evaluate(m, Word.from_bits((1, 0))) == 1 / (1 + q)
        assert evaluate(m, Word.from_bits((1, 1))) == 0
    assert evaluate(extreme_measure(2, 1, HALF), Word.from_bits((1, 0))) == Fraction(2, 3)
    with pytest.raises(ValueError):
        extreme_measure(3, 4, HALF)


def test_extreme_measure_level_normalization():
    for q in QS:
        for n in range(8):
            for k in range(n + 1):
                m = extreme_measure(n, k, q)
                assert sum(evaluate(m, w) for w in enumerate_level(n, k)) == 1


def test_q_bernoulli_one_bit():
    for q in QS:
        for exponent in range(4):
            m = q_bernoulli(1, exponent, q)
            assert evaluate(m, Word.from_bits((0,))) == q**exponent


def test_q_bernoulli_two_bits_at_x_equal_q():
    m = q_bernoulli(2, 1, HALF)
    assert evaluate(m, Word.from_bits((1, 1))) == 0
    assert evaluate(m, Word.from_bits((1, 0))) == Fraction(1, 2)
    assert evaluate(m, Word.from_bits((0, 1))) == Fraction(1, 4)
    assert evaluate(m, Word.from_bits((0, 0))) == Fraction(1, 4)


def test_q_bernoulli_matches_literal_cylinder_polynomial():
    # the safe integer-exponent form must equal q^(-j(n-j)) x^(n-j) (x;1/q)_j
    for q in QS:
        for n in range(7):
            for exponent in range(10):
                assert q_bernoulli(n, exponent, q).base == literal_bernoulli_base(n, exponent, q)


def test_q_bernoulli_levels_above_exponent_vanish():
    m = q_bernoulli(6, 2, HALF)
    assert all(m.base[j] == 0 for j in range(3, 7))
    assert all(m.level_mass(j) == 0 for j in range(3, 7))


def test_q_bernoulli_exponent_zero_is_point_mass_at_zeros():
    for n in range(1, 6):
        d = to_dense(q_bernoulli(n, 0, HALF))
        assert d.weights[0] == 1
        assert sum(d.weights) == 1


def test_q_bernoulli_rejects_bad_args():
    with pytest.raises(ValueError):
        q_bernoulli(3, -1, HALF)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_block_word_is_base():
    for n in range(6):
        for k in range(n + 1):
            m = extreme_measure(n, k, HALF)
            assert evaluate(m, block_word(n, k)) == 1 / q_binomial(n, k, HALF)


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        evaluate(extreme_measure(3, 1, HALF), Word.from_bits((1, 0)))


def test_evaluate_total_mass_one():
    for q in (HALF, Fraction(2, 3)):
        for n in range(9):
            m = random_q_exch(n, q, seed=n)
            assert sum(evaluate(m, Word(p, n)) for p in range(1 << n)) == 1


def test_evaluate_swap_covariance():
    # adjacent swap multiplies the probability by q^(w_i - w_{i+1})
    for seed in range(3):
        m = random_q_exch(6, HALF, seed)
        for p in range(1 << 6):
            w = Word(p, 6)
            value = evaluate(m, w)
            for i in range(1, 6):
                swapped = swap_adjacent(w, i)
                factor = HALF ** (w.bits[i - 1] - w.bits[i])
                assert evaluate(m, swapped) == factor * value


# ---------------------------------------------------------------------------
# dense tables and the exchangeability checker
# ---------------------------------------------------------------------------

def test_to_dense_small_cases():
    assert to_dense(extreme_measure(1, 1, HALF)).weights == (Fraction(0), Fraction(1))
    table = to_dense(q_bernoulli(2, 1, HALF))
    assert table.weights == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4), Fraction(0))


def test_to_dense_guard():
    base = [Fraction(0)] * 31
    base[0] = Fraction(1)
    m = QExchMeasure(30, HALF, tuple(base))
    with pytest.raises(ValueError):
        to_dense(m)


def test_constructed_measures_are_q_exchangeable():
    for q in (HALF, Fraction(2, 3)):
        for n in range(7):
            for k in range(n + 1):
                assert is_q_exchangeable(to_dense(extreme_measure(n, k, q)), q) == (True, None)
                assert is_q_exchangeable(to_dense(q_bernoulli(n, k, q)), q) == (True, None)
        for seed in range(3):
            assert is_q_exchangeable(to_dense(random_q_exch(6, q, seed)), q)[0]


def test_uniform_measure_is_not_q_exchangeable():
    uniform = DenseMeasure(2, (Fraction(1, 4),) * 4)
    ok, witness = is_q_exchangeable(uniform, HALF)
    assert not ok
    assert witness == (Word.from_bits((1, 0)), 1)


def test_wrong_q_detected():
    d = to_dense(extreme_measure(4, 2, HALF))
    ok, witness = is_q_exchangeable(d, Fraction(1, 3))
    assert not ok and witness is not None


def test_is_q_exchangeable_float_mode():
    # q must be exact: a float is a type error, not compared with a tolerance
    d = to_dense(q_bernoulli(5, 2, HALF))
    with pytest.raises(TypeError):
        is_q_exchangeable(d, 0.5)


# ---------------------------------------------------------------------------
# random measures
# ---------------------------------------------------------------------------

def test_random_q_exch_is_deterministic():
    a = random_q_exch(7, HALF, 123)
    b = random_q_exch(7, HALF, 123)
    c = random_q_exch(7, HALF, 124)
    assert a == b
    assert a != c


def test_random_q_exch_float_mode():
    # q must be exact: a float is a type error; a negative n is a value error
    with pytest.raises(TypeError):
        random_q_exch(5, 0.5, 9)
    with pytest.raises(ValueError):
        random_q_exch(-1, HALF, 0)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_point_supports():
    rng = random.Random(0)
    all_ones = extreme_measure(5, 5, HALF)
    sampler = MeasureSampler(all_ones)
    assert all(sampler.draw(rng) == Word.from_bits((1,) * 5) for _ in range(20))
    sampler = MeasureSampler(q_bernoulli(4, 0, HALF))
    assert all(sampler.draw(rng) == Word(0, 4) for _ in range(20))


def test_sampler_one_bit_frequency():
    m = q_bernoulli(1, 1, Fraction(1, 3))  # P(zero) = 1/3
    sampler = MeasureSampler(m)
    rng = random.Random(42)
    zeros = sum(1 for _ in range(30000) if sampler.draw(rng).packed == 0)
    assert abs(zeros / 30000 - 1 / 3) < 0.01


def test_sampler_respects_support():
    for m in (
        q_bernoulli(6, 1, HALF),  # support: at most one 1
        extreme_measure(6, 3, Fraction(2, 3)),  # three ones: the within-level table at r >= 2
    ):
        sampler = MeasureSampler(m)
        rng = random.Random(7)
        counts = Counter(sampler.draw(rng).packed for _ in range(2000))
        support = {p: 2000 * float(w) for p, w in enumerate(to_dense(m).weights) if w > 0}
        assert counts.keys() == support.keys()
        stat = sum((counts[p] - e) ** 2 / e for p, e in support.items())  # every cell expects > 10
        assert chi2_sf(stat, len(support) - 1) > 0.001


@pytest.mark.parametrize("seed", [0, 1])
def test_sampler_draws_long_words_whose_levels_fit_the_decomposition(seed):
    m = random_q_exch(64, Fraction(2, 3), seed)
    sampler = MeasureSampler(m)
    rng = random.Random(seed)
    draws = 4000
    counts = [0] * 65
    for _ in range(draws):
        w = sampler.draw(rng)
        assert w.length == 64
        counts[w.ones] += 1
    expected = [draws * float(a) for a in decompose(m).alpha]
    cells = [(c, e) for c, e in zip(counts, expected) if e >= 5]
    small = [i for i, e in enumerate(expected) if e < 5]
    if small:  # the levels expected fewer than 5 times share one cell
        cells.append((sum(counts[i] for i in small), sum(expected[i] for i in small)))
    stat = sum((c - e) ** 2 / e for c, e in cells)
    assert len(cells) > 50 and chi2_sf(stat, len(cells) - 1) > 0.001
    assert MeasureSampler(random_q_exch(128, Fraction(2, 3), seed)).draw(rng).length == 128


def test_evaluate_long_block_words():
    m = random_q_exch(64, Fraction(2, 3), 0)
    assert all(evaluate(m, block_word(64, k)) == m.base[k] for k in range(65))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_round_trip_examples():
    m = q_bernoulli(3, 2, Fraction(1, 3))
    assert QExchMeasure.from_json(m.to_json()) == m


@settings(deadline=None, max_examples=40)
@given(n=st.integers(0, 9), seed=st.integers(0, 10**6), q=st.sampled_from(QS))
def test_json_round_trip_random(n, seed, q):
    m = random_q_exch(n, q, seed)
    assert QExchMeasure.from_json(m.to_json()) == m


def test_json_schema_shape():
    record = json.loads(extreme_measure(2, 1, HALF).to_json())
    assert record == {"n": 2, "q": "1/2", "base": ["0", "2/3", "0"]}


def test_measure_from_json_rejects_garbage():
    with pytest.raises(ValueError, match="malformed"):
        QExchMeasure.from_json("{not json")
    with pytest.raises(ValueError, match="malformed"):
        QExchMeasure.from_json('["list"]')
    with pytest.raises(ValueError, match="malformed"):
        QExchMeasure.from_json('{"n": 2, "base": ["1"]}')
    with pytest.raises(ValueError, match="mass"):
        QExchMeasure.from_json('{"n": 1, "q": "1/2", "base": ["1/2", "1/4"]}')


# Each record is valid except for one field; "1/2" for both levels is a
# probability measure at n = 1 as a base and as a mixing measure.
MALFORMED_RECORDS = {
    "zero denominator": {"n": 1, "q": "1/2", "v": ["1/0", "0"]},
    "zero-denominator q": {"n": 1, "q": "1/0", "v": ["1/2", "1/2"]},
    "boolean entry": {"n": 1, "q": "1/2", "v": [True, "0"]},
    "number entries": {"n": 1, "q": "1/2", "v": [1, 0]},
    "float entry": {"n": 1, "q": "1/2", "v": [0.5, "1/2"]},
    "decimal string": {"n": 1, "q": "1/2", "v": ["0.5", "1/2"]},
    "exponent string": {"n": 1, "q": "1/2", "v": ["5e-1", "1/2"]},
    "number q": {"n": 1, "q": 0.5, "v": ["1/2", "1/2"]},
    "float n": {"n": 1.9, "q": "1/2", "v": ["1/2", "1/2"]},
    "string n": {"n": "1", "q": "1/2", "v": ["1/2", "1/2"]},
    "boolean n": {"n": True, "q": "1/2", "v": ["1/2", "1/2"]},
    "string vector": {"n": 1, "q": "1/2", "v": "10"},
    "object vector": {"n": 1, "q": "1/2", "v": {"1": "0", "0": "1"}},
}


def _record(case: dict, field: str) -> str:
    return json.dumps({"n": case["n"], "q": case["q"], field: case["v"]})


@pytest.mark.parametrize("name", sorted(MALFORMED_RECORDS))
def test_json_rejects_non_fraction_fields(name):
    case = MALFORMED_RECORDS[name]
    with pytest.raises(ValueError, match="malformed"):
        QExchMeasure.from_json(_record(case, "base"))
    with pytest.raises(ValueError, match="malformed"):
        MixingMeasure.from_json(_record(case, "alpha"))


def test_json_malformed_records_differ_from_a_valid_one_in_one_field():
    good = {"n": 1, "q": "1/2", "v": ["1/2", "1/2"]}
    assert QExchMeasure.from_json(_record(good, "base")) == QExchMeasure(1, HALF, (HALF, HALF))
    assert MixingMeasure.from_json(_record(good, "alpha")) == MixingMeasure(1, HALF, (HALF, HALF))
