"""q-exchangeable probability measures on binary words of a fixed length.

A q-exchangeable measure changes by the fixed factor ``q^(b_i - b_{i+1})``
when two adjacent bits are swapped, so it is determined by its values on the
block words ``1^k 0^(n-k)``.  :class:`QExchMeasure` stores exactly those
``n + 1`` base values; everything else is ``q^coinversions * base[ones]``.
Its level masses ``base[k] * [n, k]_q``, read as weights on the grid
``{q^0, ..., q^n}``, are its :class:`MixingMeasure` (see ``definetti``).
:class:`DenseMeasure` is the brute-force counterpart, a full table over all
``2^n`` words, used as an oracle and for measures that are not q-exchangeable.
:class:`MeasureSampler` draws words from a compact measure through its convex
decomposition: a level by its mass, then a word of that level.

JSON wire format of the two level-vector records, written by ``to_json`` and
read by the classmethod ``from_json`` (round-trips bit for bit):

    {"n": 3, "q": "1/2", "base": ["1/7", "0", ...]}
    {"n": 3, "q": "1/2", "alpha": ["1/7", "0", ...]}

``n`` is a JSON integer, the vector is a JSON array of ``n + 1`` entries, and
every scalar is a fraction string such as ``"1/3"`` or ``"0"``; anything else
is rejected with ``ValueError``, and so is an integer longer than the
interpreter's int-to-str digit limit (4300 digits by default).  The CLI reads
``--q`` with the same scalar reader.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .qcore import Word, _Record, check_q, coinversions, q_binomial, q_binomial_numerator

#: Dense tabulation is 2^n entries; past this the compact form is mandatory.
MAX_DENSE_N = 24

#: The one fraction grammar, of JSON scalars and ``--q``: ``"1/3"``, ``"0"``.
_FRACTION_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _coerce_entries(values, what: str) -> tuple[Fraction, ...]:
    """Normalize a scalar vector to Fractions; ints are promoted, anything
    else (``bool`` and ``float`` included) is a ``TypeError``."""
    out = []
    for v in values:
        if isinstance(v, int) and not isinstance(v, bool):
            v = Fraction(v)
        elif not isinstance(v, Fraction):
            raise TypeError(f"{what} entry {v!r} is not an int or Fraction")
        if v.numerator < 0:
            raise ValueError(f"{what} entries must be nonnegative, got {v}")
        out.append(v)
    return tuple(out)


def _over_lcm(values) -> tuple[list[int], int]:
    """The numerators of the Fractions (or ints) ``values`` over the lcm of
    their denominators, and that lcm: sums and differences in ints."""
    lcm = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (lcm // x.denominator) for x in values], lcm


def _check_total_mass(levels, what: str) -> None:
    """Require the Fractions ``levels`` to sum to exactly 1, summed as ints
    over one lcm; the exact total is built only for the error message."""
    ints, lcm = _over_lcm(levels)
    if sum(ints) != lcm:
        raise ValueError(f"{what} total mass must be exactly 1, got {sum(levels)}")


class _LevelRecord(_Record):
    """The shape shared by a compact measure and its mixing measure: ``n``,
    ``q`` and one nonnegative Fraction per level ``0..n``, stored in the field
    named by the string ``_key``.  Subclasses are immutable records with the
    fields ``n``, ``q`` and ``_key``; the string ``_what`` names the record in
    JSON errors."""

    def _check_levels(self) -> tuple[Fraction, ...]:
        """Validate ``q``, ``n`` and the level vector; store and return the
        vector with ints promoted to Fractions."""
        check_q(self.q)
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        levels = _coerce_entries(getattr(self, self._key), self._key)
        if len(levels) != self.n + 1:
            raise ValueError(f"{self._key} must have n + 1 = {self.n + 1} entries, got {len(levels)}")
        object.__setattr__(self, self._key, levels)
        return levels

    def to_json_dict(self) -> dict:
        return {"n": self.n, "q": str(self.q), self._key: [str(x) for x in getattr(self, self._key)]}

    def to_json(self) -> str:
        import json
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str):
        import json
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed {cls._what} JSON: {exc}") from exc
        except ValueError as exc:  # a JSON integer past the digit limit
            raise ValueError(f"malformed {cls._what} JSON: {_too_many_digits()}") from exc
        if not isinstance(record, dict):
            raise ValueError(f"malformed {cls._what} JSON: expected an object")
        try:
            n = record["n"]
            if isinstance(n, bool) or not isinstance(n, int):
                raise ValueError(f"n must be a JSON integer, got {n!r}")
            q = _scalar_from_json(record["q"])
            levels = record[cls._key]
            if not isinstance(levels, list):
                raise ValueError(f"{cls._key} must be a JSON array, got {type(levels).__name__}")
            levels = tuple(_scalar_from_json(x) for x in levels)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed {cls._what} record: {exc}") from exc
        return cls(n, q, levels)


class QExchMeasure(_LevelRecord):
    """Compact q-exchangeable measure: ``base[k]`` is the block-word value.

    Validated on construction: ``base`` has length ``n + 1``, entries are
    nonnegative Fractions (ints are promoted), and the total mass
    ``sum_k base[k] * [n, k]_q`` is exactly 1.
    """

    n: int
    q: Fraction
    base: tuple[Fraction, ...]

    _key = "base"
    _what = "measure"

    def __post_init__(self) -> None:
        self._check_levels()
        _check_total_mass([self.level_mass(k) for k in range(self.n + 1)], "measure")

    def level_mass(self, k: int) -> Fraction:
        """``base[k] * [n, k]_q``, the mass of the words with ``k`` ones; reads
        the binomial only for a nonzero ``base[k]``, and never builds its Fraction.

        With ``q = a/b`` and ``[n, k]_q = N / b^e``, ``e = k (n - k)``, the
        common factors ``gcd(N, den(base[k]))`` and ``gcd(num(base[k]), b^e)``
        are divided out before the two products are formed, so no product is
        bigger than the result needs.  Nothing else cancels, because
        ``gcd(N, b) = 1``: the Gaussian polynomial ``[n, k]`` is monic of
        degree ``e``, so of ``N = sum_i c_i a^i b^(e - i)`` only ``a^e`` is
        left mod ``b``, and ``a`` is prime to ``b``.
        """
        base = self.base[k]
        if not base:
            return base
        e = k * (self.n - k)
        binom, power = q_binomial_numerator(self.n, k, self.q), self.q.denominator**e
        g, h = math.gcd(binom, base.denominator), math.gcd(base.numerator, power)
        return Fraction(base.numerator // h * (binom // g), base.denominator // g * (power // h))


class MixingMeasure(_LevelRecord):
    """Weights ``alpha[i]`` on the grid points ``q^i``, ``i = 0..n``."""

    n: int
    q: Fraction
    alpha: tuple[Fraction, ...]

    _key = "alpha"
    _what = "mixing-measure"

    def __post_init__(self) -> None:
        _check_total_mass(self._check_levels(), "mixing measure")


class DenseMeasure(_Record):
    """Explicit probability table over all ``2^n`` words, indexed by packed value."""

    n: int
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_DENSE_N:
            raise ValueError(f"dense measures support 0 <= n <= {MAX_DENSE_N}, got {self.n}")
        weights = _coerce_entries(self.weights, "weight")
        if len(weights) != 1 << self.n:
            raise ValueError(f"need 2^n = {1 << self.n} weights, got {len(weights)}")
        object.__setattr__(self, "weights", weights)
        _check_total_mass(weights, "dense measure")


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def extreme_measure(n: int, k: int, q: Fraction) -> QExchMeasure:
    """The unique q-exchangeable measure supported on the level of k ones.

    Its block value is ``1/[n, k]_q`` and pointwise it weighs each level word
    by ``q^coinversions / [n, k]_q``; these are the vertices of the convex set
    of q-exchangeable measures on ``{0,1}^n``.
    """
    check_q(q)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    base = [Fraction(0)] * (n + 1)
    base[k] = 1 / q_binomial(n, k, q)
    return QExchMeasure(n, q, tuple(base))


def q_bernoulli(n: int, exponent: int, q: Fraction) -> QExchMeasure:
    """q-deformed Bernoulli measure with zero-probability ``x = q^exponent``.

    Block values follow ``base[j] = q^((e - j)(n - j)) * prod_{i<j}(1 - q^(e-i))``
    with ``e = exponent``, which is the cylinder polynomial
    ``q^(-j(n-j)) x^(n-j) (x; 1/q)_j`` rewritten with nonnegative integer
    exponents only.  Levels above ``exponent`` vanish because the product
    hits the factor ``1 - q^0``.
    """
    check_q(q)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    return QExchMeasure(n, q, _q_bernoulli_base(n, exponent, q))


def _q_bernoulli_base(n: int, exponent: int, q: Fraction) -> tuple[Fraction, ...]:
    """The block values of :func:`q_bernoulli`, unchecked and unvalidated."""
    base, poch = [Fraction(0)] * (n + 1), Fraction(1)
    for j in range(min(n, exponent) + 1):
        base[j] = q ** ((exponent - j) * (n - j)) * poch
        poch *= 1 - q ** (exponent - j)
    return tuple(base)


def random_q_exch(n: int, q: Fraction, seed: int) -> QExchMeasure:
    """Seeded random q-exchangeable measure, deterministic given ``seed``.

    Draws nonnegative integer level masses, normalizes them to total 1, and
    divides by the Gaussian binomials so the result is exactly a probability
    measure.
    """
    check_q(q)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    import random  # here, not at the top: a sweep never draws a measure
    rng = random.Random(seed)
    raw = [rng.randint(0, 10**6) for _ in range(n + 1)]
    total = sum(raw)
    if total == 0:
        raw[0] = total = 1
    b = q.denominator
    # r / total / [n, k]_q as one Fraction: a single gcd per level
    base = tuple(
        Fraction(r * b ** (k * (n - k)), total * q_binomial_numerator(n, k, q))
        for k, r in enumerate(raw)
    )
    return QExchMeasure(n, q, base)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(m: QExchMeasure, w: Word) -> Fraction:
    """Probability of a single word: ``q^coinversions(w) * base[ones(w)]``."""
    if w.length != m.n:
        raise ValueError(f"word length {w.length} does not match dimension {m.n}")
    return m.q ** coinversions(w) * m.base[w.ones]


def to_dense(m: QExchMeasure) -> DenseMeasure:
    """Tabulate the measure on every word, exactly."""
    if m.n > MAX_DENSE_N:
        raise ValueError(f"refusing to tabulate 2^{m.n} words (limit n <= {MAX_DENSE_N})")
    weights = tuple(evaluate(m, Word(p, m.n)) for p in range(1 << m.n))
    return DenseMeasure(m.n, weights)


def is_q_exchangeable(d: DenseMeasure, q: Fraction) -> tuple[bool, tuple[Word, int] | None]:
    """Check the adjacent-swap rule on every word and position.

    For each word ``w`` and 1-based position ``i``, requires
    ``P(swap_i(w)) = q^(w_i - w_{i+1}) P(w)`` exactly.  Returns
    ``(True, None)`` or ``(False, (word, position))`` for the first violation
    in increasing packed order.
    """
    check_q(q)
    weights = d.weights
    for packed in range(1 << d.n):
        value = weights[packed]
        for i in range(1, d.n):
            lo = (packed >> (i - 1)) & 1
            hi = (packed >> i) & 1
            if lo == hi:
                continue
            swapped = weights[packed ^ (0b11 << (i - 1))]
            # lo = w_i, hi = w_{i+1}; factor q^(lo - hi)
            expected = value * q if lo == 1 else value / q
            if swapped != expected:
                return False, (Word(packed, d.n), i)
    return True, None


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

class MeasureSampler:
    """Sampler for a compact measure through its convex decomposition.

    A draw picks level ``i`` with probability ``level_mass(i)``, then a word of
    that level from ``extreme(n, i)``, which weighs it by ``q^coinversions``.
    A leading 0 takes one coinversion per later 1, so
    ``[L, r]_q = [L-1, r-1]_q + q^r [L-1, r]_q``: with ``r`` ones left for
    ``L`` positions, the next bit is 1 with probability
    ``[L-1, r-1]_q / [L, r]_q = (1 - q^r) / (1 - q^L)``.  Both tables are exact
    until rounded to float once, at build time; a draw takes ``n + 1`` variates.
    """

    def __init__(self, m: QExchMeasure):
        from itertools import accumulate  # not a module import: a sweep never samples
        self.n = m.n
        # the last partial sum is exactly 1, so rounds to 1.0
        self._cumulative = [float(s) for s in accumulate(map(m.level_mass, range(m.n + 1)))]
        a, b = m.q.numerator, m.q.denominator
        self._rows = [  # row j is for L = n - j positions; an int ratio, rounded once
            [(b**r - a**r) * b ** (L - r) / (b**L - a**L) for r in range(L + 1)] for L in range(m.n, 0, -1)
        ]

    def draw(self, rng) -> Word:
        """One word drawn with ``rng``, a ``random.Random`` (left unannotated:
        the module imports ``random`` only inside ``random_q_exch``)."""
        u = rng.random()
        ones = next(i for i, c in enumerate(self._cumulative) if u < c)
        packed = 0
        for j, row in enumerate(self._rows):
            if rng.random() < row[ones]:
                packed |= 1 << j
                ones -= 1
        return Word(packed, self.n)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _scalar_from_json(v) -> Fraction:
    """Parse a fraction string; JSON numbers, decimals and exponents are
    rejected, so a short file cannot ask for a huge power of ten."""
    if not isinstance(v, str) or not _FRACTION_RE.fullmatch(v):
        raise ValueError(f"expected a fraction string like \"1/3\", got {v!r}")
    try:
        return Fraction(v)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {v!r}") from exc
    except ValueError as exc:  # a numerator or denominator past the digit limit
        raise ValueError(_too_many_digits()) from exc


def _too_many_digits() -> str:
    """The interpreter's int digit limit as a reader's error, without Python's
    hint to lift it: a reader keeps the limit."""
    return f"an integer has more than {sys.get_int_max_str_digits()} digits, the limit for reading one"
