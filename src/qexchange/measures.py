"""q-exchangeable probability measures on binary words of a fixed length.

A q-exchangeable measure changes by the fixed factor ``q^(b_i - b_{i+1})``
when two adjacent bits are swapped, so it is determined by its values on the
block words ``1^k 0^(n-k)``.  :class:`QExchMeasure` stores exactly those
``n + 1`` base values; everything else is ``q^coinversions * base[ones]``.
:class:`DenseMeasure` is the brute-force counterpart, a full table over all
``2^n`` words, used as an oracle and for measures that are not q-exchangeable.
:class:`MeasureSampler` draws words from a compact measure.

JSON wire format of a measure and of its mixing measure, written by
``to_json`` and read by the classmethod ``from_json`` (round-trips bit for
bit):

    {"n": 3, "q": "1/2", "base": ["1/7", "0", ...]}
    {"n": 3, "q": "1/2", "alpha": ["1/7", "0", ...]}

``n`` is a JSON integer, the vector is a JSON array of ``n + 1`` entries, and
every scalar is a fraction string such as ``"1/3"`` or ``"0"``; anything else
is rejected with ``ValueError``.  The CLI reads ``--q`` with the same grammar.
"""

from __future__ import annotations

import random
import re
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
        if v < 0:
            raise ValueError(f"{what} entries must be nonnegative, got {v}")
        out.append(v)
    return tuple(out)


def _times_binomial(x: Fraction, n: int, k: int, q: Fraction) -> Fraction:
    """``x * [n, k]_q`` through the integer numerator, so the binomial's own
    Fraction, whose construction is a gcd of two coprime big integers, is
    never built."""
    return x * q_binomial_numerator(n, k, q) / q.denominator ** (k * (n - k))


def _check_total_mass(total: Fraction, what: str) -> None:
    if total != 1:
        raise ValueError(f"{what} total mass must be exactly 1, got {total}")


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
        return {
            "n": self.n,
            "q": str(self.q),
            self._key: [str(x) for x in getattr(self, self._key)],
        }

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
        if not isinstance(record, dict):
            raise ValueError(f"malformed {cls._what} JSON: expected an object")
        try:
            n = _int_from_json(record["n"])
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
        base = self._check_levels()
        total = sum(_times_binomial(base[k], self.n, k, self.q) for k in range(self.n + 1))
        _check_total_mass(total, "measure")

    def level_mass(self, k: int) -> Fraction:
        """Total probability of the words with exactly ``k`` ones."""
        return _times_binomial(self.base[k], self.n, k, self.q)


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
        _check_total_mass(sum(weights), "dense measure")

    def weight(self, w: Word) -> Fraction:
        if w.length != self.n:
            raise ValueError(f"word length {w.length} does not match dimension {self.n}")
        return self.weights[w.packed]


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
    base = []
    poch = Fraction(1)
    for j in range(n + 1):
        if j > exponent:
            base.append(Fraction(0))
            continue
        base.append(q ** ((exponent - j) * (n - j)) * poch)
        poch *= 1 - q ** (exponent - j)
    return QExchMeasure(n, q, tuple(base))


def random_q_exch(n: int, q: Fraction, seed: int) -> QExchMeasure:
    """Seeded random q-exchangeable measure, deterministic given ``seed``.

    Draws nonnegative integer level masses, normalizes them to total 1, and
    divides by the Gaussian binomials so the result is exactly a probability
    measure.
    """
    check_q(q)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
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
    """Sequential-conditional sampler for a compact measure.

    Folding the base vector one coordinate at a time gives the level bases
    ``B_j`` of every leading projection via
    ``B_j[a] = B_{j+1}[a] + q^(j-a) * B_{j+1}[a+1]``; the conditional
    probability that the next bit is 1 given a prefix with ``a`` ones is then
    ``q^(j-a) * B_{j+1}[a+1] / B_j[a]``.  Conditionals are computed exactly
    and rounded to float once, at table-build time, so each draw costs n
    uniform variates and n lookups.
    """

    def __init__(self, m: QExchMeasure):
        self.n = m.n
        levels: list[list[Fraction]] = [list(m.base)]
        for j in range(m.n - 1, -1, -1):
            upper = levels[-1]
            levels.append([upper[a] + m.q ** (j - a) * upper[a + 1] for a in range(j + 1)])
        levels.reverse()  # levels[j] is the base vector of the j-dim projection
        self._p_one = []
        for j in range(m.n):
            row = []
            for a in range(j + 1):
                mass = levels[j][a]
                if mass == 0:
                    row.append(0.0)  # unreachable prefix
                else:
                    row.append(float(m.q ** (j - a) * levels[j + 1][a + 1] / mass))
            self._p_one.append(row)

    def draw(self, rng: random.Random) -> Word:
        packed = 0
        ones = 0
        for j in range(self.n):
            if rng.random() < self._p_one[j][ones]:
                packed |= 1 << j
                ones += 1
        return Word(packed, self.n)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _scalar_from_json(v) -> Fraction:
    """Parse a fraction string; JSON numbers, decimals and exponents are
    rejected, so a short file cannot ask for a huge power of ten."""
    if not isinstance(v, str) or not _FRACTION_RE.fullmatch(v):
        raise ValueError(f"scalar must be a fraction string like \"1/3\", got {v!r}")
    try:
        return Fraction(v)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {v!r}") from exc


def _int_from_json(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"n must be a JSON integer, got {v!r}")
    return v
