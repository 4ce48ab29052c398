import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qexchange import (
    DenseMeasure,
    DistanceReport,
    MixingMeasure,
    QExchMeasure,
    RateSweepConfig,
    Word,
    block_word,
    check_q,
    coinversions,
    enumerate_level,
    extreme_measure,
    inversions,
    project,
    q_binomial,
    q_binomial_numerator,
    q_factorial,
    q_int,
    q_pochhammer,
    random_q_exch,
    swap_adjacent,
    verify_rate,
)
from qexchange import qcore
from oracles import brute_level_sum, pair_statistics, q_binomial_row
from helpers import src_env

HALF = Fraction(1, 2)
QS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))
ORACLE_QS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 7), Fraction(5, 8))

bit_lists = st.lists(st.integers(0, 1), max_size=16)


# ---------------------------------------------------------------------------
# the deformation parameter
# ---------------------------------------------------------------------------

def test_check_q_accepts_open_interval():
    assert check_q(HALF) == HALF
    assert check_q(Fraction(999, 1000)) == Fraction(999, 1000)


@pytest.mark.parametrize("bad", [Fraction(0), Fraction(1), Fraction(3, 2), 0.0, 1.0, -0.5])
def test_check_q_rejects_endpoints_and_outside(bad):
    # a float is rejected for its type before its value is looked at
    with pytest.raises(TypeError if isinstance(bad, float) else ValueError):
        check_q(bad)


def test_check_q_rejects_non_scalars():
    for bad in ("1/2", 0.5, True):
        with pytest.raises(TypeError):
            check_q(bad)


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def test_word_packing_convention():
    # little endian: bit i holds sequence position i + 1
    assert Word.from_bits((1, 0)).packed == 1
    assert Word.from_bits((0, 1)).packed == 2
    assert str(Word.from_bits((1, 0, 1))) == "101"


@given(bit_lists)
def test_word_bits_round_trip(bits):
    w = Word.from_bits(bits)
    assert w.bits == tuple(bits)
    assert w.ones + w.zeros == w.length == len(bits)


def test_word_validation():
    with pytest.raises(ValueError):
        Word(4, 2)
    with pytest.raises(ValueError):
        Word(1 << 64, 64)
    with pytest.raises(ValueError):
        Word(0, -1)
    with pytest.raises(ValueError):
        Word.from_bits((0, 2))


def test_block_word():
    assert str(block_word(5, 2)) == "11000"
    assert block_word(0, 0) == Word(0, 0)
    with pytest.raises(ValueError):
        block_word(2, 3)


def test_inversions_examples():
    assert inversions(Word.from_bits((1, 0))) == 1
    assert inversions(Word.from_bits((0, 1, 0, 1))) == 1
    assert coinversions(Word.from_bits((0, 1))) == 1
    assert coinversions(Word.from_bits((0, 1, 0, 1))) == 3


@pytest.mark.parametrize("n,k", [(1, 0), (4, 2), (7, 3), (10, 10), (12, 5)])
def test_block_word_statistics(n, k):
    s = block_word(n, k)
    assert inversions(s) == k * (n - k)
    assert coinversions(s) == 0


@given(bit_lists)
def test_statistics_against_pair_enumeration(bits):
    w = Word.from_bits(bits)
    inv, coinv = pair_statistics(w.bits)
    assert inversions(w) == inv
    assert coinversions(w) == coinv
    assert inv + coinv == w.ones * w.zeros


def test_swap_adjacent():
    w = Word.from_bits((1, 0, 1))
    assert swap_adjacent(w, 1) == Word.from_bits((0, 1, 1))
    assert swap_adjacent(w, 2) == Word.from_bits((1, 1, 0))
    same = Word.from_bits((1, 1, 0))
    assert swap_adjacent(same, 1) == same
    with pytest.raises(ValueError):
        swap_adjacent(w, 3)
    with pytest.raises(ValueError):
        swap_adjacent(Word(0, 0), 1)


def test_enumerate_level_small():
    assert [str(w) for w in enumerate_level(2, 1)] == ["10", "01"]
    assert len(list(enumerate_level(4, 2))) == 6
    assert list(enumerate_level(0, 0)) == [Word(0, 0)]


def test_enumerate_level_counts_and_order():
    for n in range(13):
        for k in range(n + 1):
            packed = [w.packed for w in enumerate_level(n, k)]
            assert len(packed) == math.comb(n, k)
            assert packed == sorted(set(packed))
            assert all(Word(p, n).ones == k for p in packed)


def test_enumerate_level_large_n_streams():
    first = next(enumerate_level(64, 1))
    assert first.packed == 1 and first.length == 64


def test_enumerate_level_errors():
    with pytest.raises(ValueError):
        list(enumerate_level(3, 4))


# ---------------------------------------------------------------------------
# q-functions
# ---------------------------------------------------------------------------

def test_q_int():
    assert q_int(0, HALF) == 0
    assert q_int(1, Fraction(2, 3)) == 1
    assert q_int(3, HALF) == Fraction(7, 4)
    assert q_int(3, HALF) == 1 + HALF + HALF**2


def test_q_factorial():
    assert q_factorial(0, HALF) == 1
    assert q_factorial(2, HALF) == Fraction(3, 2)
    assert q_factorial(3, HALF) == Fraction(21, 8)


def test_q_binomial_examples():
    for q in QS:
        assert q_binomial(5, 0, q) == 1
        assert q_binomial(2, 1, q) == 1 + q
    assert q_binomial(4, 2, HALF) == Fraction(35, 16)


def test_q_binomial_matches_enumeration():
    for q in QS:
        for n in range(11):
            for k in range(n + 1):
                qb = q_binomial(n, k, q)
                assert brute_level_sum(n, k, q, inversions) == qb
                assert brute_level_sum(n, k, q, coinversions) == qb


def test_q_binomial_symmetry_and_factorial_ratio():
    for q in QS:
        for n in range(11):
            for k in range(n + 1):
                qb = q_binomial(n, k, q)
                assert qb == q_binomial(n, n - k, q)
                assert qb == q_factorial(n, q) / (q_factorial(k, q) * q_factorial(n - k, q))


def test_q_binomial_errors(cold_cache):
    # off range is an error here; the closed forms' zero corners are asserted in
    # test_projection.py::test_closed_form_out_of_range_corners_are_zero
    with pytest.raises(ValueError):
        q_binomial(2, 3, HALF)
    with pytest.raises(ValueError):
        q_binomial(2, -1, HALF)
    # q outside (0, 1) is an error whatever rows were read before
    for q in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
        for n in (4, 0, 1, 2, 3, 4):  # cold, then after rows 0..3 in order
            for read in (q_binomial, q_binomial_numerator):
                with pytest.raises(ValueError, match="0 < q < 1"):
                    read(n, n // 2, q)


def test_q_binomial_float_mode():
    # q must be exact: a float is a type error, not a second code path
    with pytest.raises(TypeError):
        q_binomial(4, 2, 0.5)
    for call in (
        lambda: q_int(3, 0.5),
        lambda: q_int(0, 0.5),
        lambda: q_factorial(3, 0.5),
        lambda: q_factorial(0, 0.5),
        lambda: q_pochhammer(0.5, HALF, 3),
        lambda: q_pochhammer(HALF, 0.5, 0),
        lambda: q_pochhammer(1, HALF, 2),
    ):
        with pytest.raises(TypeError):
            call()


@pytest.fixture
def cold_cache():
    """An empty q-binomial cache at the start and the end of one test."""
    qcore._qbinom_row.cache_clear()
    yield qcore._qbinom_row
    qcore._qbinom_row.cache_clear()


def _is_held(row_cache, a, b, n):
    """Whether row ``n`` of ``q = a/b`` was cached; the read itself caches it."""
    hits = row_cache.cache_info().hits
    row_cache(a, b, n)
    return row_cache.cache_info().hits > hits


@pytest.mark.parametrize(
    "q,rows",
    [(q, range(61)) for q in ORACLE_QS]
    + [(Fraction(2, 3), [300]), (Fraction(9, 10), [50, 300]), (HALF, [300])],
)
def test_q_binomial_against_product_formula(cold_cache, q, rows):
    # shuffled rows, read twice: no value may depend on which rows were read before
    rows = list(rows)
    random.Random(0).shuffle(rows)
    for _cache in ("cold", "warm"):
        for n in rows:
            for k, expected in enumerate(q_binomial_row(n, q)):
                assert q_binomial(n, k, q) == expected
                assert q_binomial_numerator(n, k, q) == expected * q.denominator ** (k * (n - k))


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)])
@pytest.mark.parametrize("n", [50, 300])
def test_ratio_and_pascal_rows_agree(cold_cache, n, q):
    # the ratio recurrence of the row store against the q-Pascal recurrence
    # N(n, k) = b^(n-k) N(n-1, k-1) + a^k N(n-1, k) on the integer numerators
    # of row n - 1, and both against the product formula
    a, b = q.numerator, q.denominator
    for row in (n, n - 1):  # one read of the middle entry fills the half row
        q_binomial_numerator(row, row // 2, q)
    ratio = list(cold_cache(a, b, n))
    previous = cold_cache(a, b, n - 1)
    full_previous = list(previous) + list(reversed(previous[: n - len(previous)]))  # symmetry
    pascal = [1] + [
        b ** (n - k) * full_previous[k - 1] + a**k * full_previous[k] for k in range(1, n // 2 + 1)
    ]
    assert ratio == pascal
    oracle = q_binomial_row(n, q)
    assert len(ratio) == n // 2 + 1
    assert ratio == [x * b ** (k * (n - k)) for k, x in enumerate(oracle[: n // 2 + 1])]


def test_row_store_stays_within_budget(cold_cache):
    q = Fraction(2, 3)
    maxsize = cold_cache.cache_parameters()["maxsize"]
    for n in range(3, 201):  # rows n and n - 3, each one step behind the last read
        q_binomial(n, 1, q)
        q_binomial(n - 3, 0, q)
    assert cold_cache.cache_info().currsize <= maxsize and _is_held(cold_cache, 2, 3, 200)
    q_binomial(400, 2, q)
    assert cold_cache.cache_info().currsize <= maxsize and _is_held(cold_cache, 2, 3, 400)


def test_row_budget_is_shared_by_every_q(cold_cache):
    qs = [Fraction(i, i + 1) for i in range(1, 41)]
    for q in qs:
        q_binomial(60, 2, q)
    maxsize = cold_cache.cache_parameters()["maxsize"]
    assert maxsize == 8 and cold_cache.cache_info().currsize == maxsize
    # the last maxsize rows read are held, in order, and the one before is gone
    assert all(_is_held(cold_cache, q.numerator, q.denominator, 60) for q in qs[-maxsize:])
    assert not _is_held(cold_cache, qs[-maxsize - 1].numerator, qs[-maxsize - 1].denominator, 60)


def test_sweep_holds_only_the_level_row(cold_cache):
    # the level sums read [k, k1]_q and no size-n row
    q = Fraction(2, 3)
    verify_rate(RateSweepConfig(q=q, k=3, n_start=3, n_end=200, n1_rule="half"))
    assert cold_cache.cache_info().currsize == 1 and _is_held(cold_cache, 2, 3, 3)


def test_one_cold_read_builds_one_row(cold_cache):
    q = Fraction(2, 3)
    assert q_binomial(400, 2, q) == (1 - q**400) * (1 - q**399) / ((1 - q) * (1 - q**2))
    assert cold_cache.cache_info().currsize == 1
    assert len(cold_cache(2, 3, 400)) == 3  # the prefix N(400, 0..2), not the half row
    assert cold_cache.cache_info().hits == 1
    # a read further along extends the same row up to the entry read, no further
    q_binomial_numerator(400, 398, q)
    assert len(cold_cache(2, 3, 400)) == 3
    q_binomial_numerator(400, 250, q)
    assert len(cold_cache(2, 3, 400)) == 151 and cold_cache.cache_info().currsize == 1


def test_zero_base_values_read_no_binomial(cold_cache):
    # validating extreme(300, 300) sums 301 level masses; the 300 zero ones
    # read nothing, so row 300 holds N(300, 0) alone, not the half row
    m = extreme_measure(300, 300, Fraction(2, 3))
    assert cold_cache.cache_info().currsize == 1 and len(cold_cache(2, 3, 300)) == 1
    assert [m.level_mass(i) for i in range(301)] == [Fraction(0)] * 300 + [Fraction(1)]


def test_project_reads_no_suffix_row(cold_cache):
    # the recurrence reads rows n (the level masses) and k; row n - k, which
    # a suffix sum over [n - k, j - k1]_q would read, is never built
    m = random_q_exch(150, Fraction(2, 3), 0)
    project(m, 4)
    assert not _is_held(cold_cache, 2, 3, 146)
    assert _is_held(cold_cache, 2, 3, 150) and _is_held(cold_cache, 2, 3, 4)


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in Linux's KiB")
def test_large_row_memory_is_bounded():
    # every row up to n = 400 held at once takes about 240 MB, and the half row
    # of n = 6000 gigabytes: only the prefix N(n, 0..2) may be built, so the
    # n = 6000 read runs under a 512 MB address-space cap
    code = (
        "import io, resource, contextlib, sys\n"
        "n, cap_mb = sys.argv[1:]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (int(cap_mb) << 20, int(cap_mb) << 20))\n"
        "from qexchange.cli import main\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['qbinom', n, '2', '--q', '2/3']) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    for n, cap_mb in ((400, 1024), (1000, 1024), (6000, 512)):
        argv = [sys.executable, "-c", code, str(n), str(cap_mb)]
        result = subprocess.run(argv, capture_output=True, text=True, env=src_env())
        assert result.returncode == 0, (n, result.stderr)
        assert int(result.stdout) < 4 * 1024, n


@pytest.mark.parametrize(
    "q", [Fraction(1, 2), Fraction(2, 3), Fraction(3, 7), Fraction(6, 35), Fraction(999, 1000)]
)
def test_q_binomial_numerator_is_prime_to_b(q):
    # [n, k] is monic of degree e = k(n - k), so N = b^e [n, k]_(a/b) is a^e
    # mod b, and a is prime to b: level_mass relies on gcd(N, b) = 1
    a, b = q.numerator, q.denominator
    for n in range(61):
        for k in range(n + 1):
            binom = q_binomial_numerator(n, k, q)
            assert binom % b == pow(a, k * (n - k), b), (n, k)
            assert math.gcd(binom, b) == 1, (n, k)


def test_q_binomial_numerator_errors():
    with pytest.raises(ValueError):
        q_binomial_numerator(2, 3, HALF)
    with pytest.raises(TypeError):
        q_binomial_numerator(2, 1, 0.5)


def test_q_pochhammer():
    assert q_pochhammer(Fraction(3, 7), Fraction(1, 5), 0) == 1
    assert q_pochhammer(Fraction(1), Fraction(2), 4) == 0
    assert q_pochhammer(Fraction(1, 4), Fraction(2), 2) == Fraction(3, 8)
    with pytest.raises(ValueError):
        q_pochhammer(HALF, HALF, -1)


@given(st.integers(0, 12))
def test_q_pochhammer_recurrence(n):
    x, t = Fraction(1, 3), Fraction(2, 5)
    assert q_pochhammer(x, t, n + 1) == q_pochhammer(x, t, n) * (1 - x * t**n)


# ---------------------------------------------------------------------------
# immutable records
# ---------------------------------------------------------------------------

F = Fraction
# One instance of each record: its fields by keyword, and its repr as the
# frozen dataclasses these records replaced printed it.
RECORDS = [
    (Word, {"packed": 5, "length": 4}, "Word(packed=5, length=4)"),
    (
        QExchMeasure,
        {"n": 1, "q": HALF, "base": (F(1, 3), F(2, 3))},
        "QExchMeasure(n=1, q=Fraction(1, 2), base=(Fraction(1, 3), Fraction(2, 3)))",
    ),
    (
        DenseMeasure,
        {"n": 1, "weights": (F(1, 4), F(3, 4))},
        "DenseMeasure(n=1, weights=(Fraction(1, 4), Fraction(3, 4)))",
    ),
    (
        MixingMeasure,
        {"n": 1, "q": HALF, "alpha": (F(1, 4), F(3, 4))},
        "MixingMeasure(n=1, q=Fraction(1, 2), alpha=(Fraction(1, 4), Fraction(3, 4)))",
    ),
    (
        DistanceReport,
        {"n": 2, "k": 1, "n1": 1, "q": HALF, "distance": F(1, 3), "upper": F(1), "lower": None},
        "DistanceReport(n=2, k=1, n1=1, q=Fraction(1, 2), distance=Fraction(1, 3), "
        "upper=Fraction(1, 1), lower=None)",
    ),
    (
        RateSweepConfig,
        {"q": HALF, "k": 2, "n_start": 3, "n_end": 5, "n1_rule": 3},
        "RateSweepConfig(q=Fraction(1, 2), k=2, n_start=3, n_end=5, n1_rule=3)",
    ),
]


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, text):
    args = tuple(fields.values())
    record = cls(*args)
    assert record == cls(**fields)
    assert hash(record) == hash(cls(**fields))
    assert repr(record) == text
    first, value = next(iter(fields.items()))
    for bad in (
        lambda: cls(*args, 0),  # too many positional arguments
        lambda: cls(**fields, bogus=0),  # unknown keyword
        lambda: cls(*args, **{first: value}),  # one field twice
        lambda: cls(value),  # missing fields
    ):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(AttributeError):
        setattr(record, first, value)
    with pytest.raises(AttributeError):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert getattr(record, first) == value


def test_record_defaults():
    report = DistanceReport(n=2, k=1, n1=1, q=HALF, distance=F(1, 3), upper=F(1))
    assert report.lower is None
    assert report == DistanceReport(2, 1, 1, HALF, F(1, 3), F(1), None)
    cfg = RateSweepConfig(HALF, 2, 3, 5)
    assert cfg.n1_rule == "equal"
    assert cfg == RateSweepConfig(q=HALF, k=2, n_start=3, n_end=5, n1_rule="equal")
    assert RateSweepConfig(HALF, 2, 3, 5, 1).n1_rule == 1


def test_record_validates_keyword_construction():
    for bad in (
        lambda: Word(packed=4, length=2),
        lambda: QExchMeasure(n=1, q=HALF, base=(1, 1)),
        lambda: DenseMeasure(n=1, weights=(F(1, 2),)),
        lambda: MixingMeasure(n=1, q=HALF, alpha=(1, 1)),
        lambda: RateSweepConfig(q=HALF, k=2, n_start=3, n_end=5, n1_rule="fixed"),
    ):
        with pytest.raises(ValueError):
            bad()
    with pytest.raises(TypeError):
        QExchMeasure(n=0, q=0.5, base=(1,))
    # validation still normalises an int entry to a Fraction
    assert QExchMeasure(n=0, q=HALF, base=(1,)).base == (F(1),)


def test_records_of_different_classes_differ():
    levels = (F(1, 4), F(3, 4))
    measure, mixing = QExchMeasure(1, HALF, levels), MixingMeasure(1, HALF, levels)
    assert measure != mixing and mixing != measure
    assert len({measure, mixing}) == 2
