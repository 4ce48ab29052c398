"""Exact q-combinatorics primitives and bit-packed binary-word statistics.

All arithmetic is exact: scalars are ``fractions.Fraction`` end to end, so
every identity in the library can be asserted with ``==`` and no tolerance.
A ``float`` deformation parameter is rejected, not coerced.  Gaussian
binomials are kept as integer numerators over powers of the denominator of
``q``, in a store of at most a few row prefixes over all ``q``: each row is
built on its own by the ratio recurrence, and only up to the entry read, so
memory stays bounded by what is read however large ``n`` is and however many
``q`` are read.  A ``Fraction`` is built only when an entry is read.

Words are binary sequences packed little-endian into a Python int: bit ``i``
of ``packed`` holds sequence position ``i + 1``.  This makes the level
enumeration order (increasing packed value) canonical.

Two pair statistics are provided.  ``inversions`` counts descents, pairs
``i < j`` with ``w_i > w_j`` (a one before a zero).  ``coinversions`` counts
ascents, pairs with ``w_i < w_j``.  They satisfy ``inv + coinv = ones * zeros``
and both sum to the Gaussian binomial over a level set.  All probability
weights in this package use the coinversion statistic: under the adjacent-swap
rule (swapping a ``1, 0`` pair into ``0, 1`` multiplies the probability by
``q``), the block word ``1^k 0^(n-k)`` carries exponent zero and the largest
probability of its level, and each ascent pair costs one factor of ``q``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import lru_cache

def check_q(q: Fraction) -> Fraction:
    """Validate a deformation parameter: a Fraction strictly between 0 and 1.

    Both endpoints are rejected; the classical ``q = 1`` regime is out of
    scope and ``q = 0`` degenerates every weight.
    """
    if not isinstance(q, Fraction):
        raise TypeError(f"q must be a Fraction, got {type(q).__name__}")
    if not 0 < q < 1:
        raise ValueError(f"q must satisfy 0 < q < 1, got {q}")
    return q


class _Record:
    """An immutable record whose fields are the annotated names of its classes,
    given by position or keyword; a field's class value is its default.
    ``__post_init__`` then validates.  Records compare and hash by class and
    fields and repr as ``Name(field=value, ...)``: a frozen dataclass without
    importing ``dataclasses`` at start-up."""

    def __init_subclass__(cls) -> None:
        cls._fields = (*getattr(cls, "_fields", ()), *cls.__annotations__)  # inherited, then own

    def __init__(self, *args, **kwargs) -> None:
        cls, fields = type(self), self._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, got {len(args)}")
        values = dict(zip(fields, args))
        for name in kwargs:
            if name not in fields or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
        values.update(kwargs)
        for name in fields:
            if name not in values and not hasattr(cls, name):
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            self.__dict__[name] = values[name] if name in values else getattr(cls, name)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: the record is immutable")

    __delattr__ = __setattr__


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

class Word(_Record):
    """A binary sequence of ``length`` bits packed into an int.

    Bit ``i`` of ``packed`` stores sequence position ``i + 1``, so the word
    ``(1, 0)`` packs to 1 and ``(0, 1)`` packs to 2.
    """

    packed: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0 or not 0 <= self.packed < (1 << self.length):
            raise ValueError(f"packed value {self.packed} out of range for length {self.length}")

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "Word":
        packed = 0
        length = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {b!r}")
            packed |= b << length
            length += 1
        return cls(packed, length)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.packed >> i) & 1 for i in range(self.length))

    @property
    def ones(self) -> int:
        return self.packed.bit_count()

    @property
    def zeros(self) -> int:
        return self.length - self.ones

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def block_word(n: int, k: int) -> Word:
    """The level representative ``1^k 0^(n-k)``: k ones then n-k zeros."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return Word((1 << k) - 1, n)


def inversions(w: Word) -> int:
    """Number of descent pairs ``i < j`` with ``w_i = 1, w_j = 0``."""
    inv = 0
    zeros = ~w.packed & ((1 << w.length) - 1)
    while zeros:
        low = zeros & -zeros
        inv += (w.packed & (low - 1)).bit_count()
        zeros ^= low
    return inv


def coinversions(w: Word) -> int:
    """Number of ascent pairs ``i < j`` with ``w_i = 0, w_j = 1``."""
    coinv = 0
    ones = w.packed
    while ones:
        low = ones & -ones
        pos = low.bit_length() - 1
        coinv += pos - (w.packed & (low - 1)).bit_count()
        ones ^= low
    return coinv


def swap_adjacent(w: Word, i: int) -> Word:
    """Swap sequence positions ``i`` and ``i + 1`` (1-based)."""
    if not 1 <= i < w.length or w.length < 2:
        raise ValueError(f"position {i} has no adjacent pair in a word of length {w.length}")
    lo = (w.packed >> (i - 1)) & 1
    hi = (w.packed >> i) & 1
    if lo == hi:
        return w
    return Word(w.packed ^ (0b11 << (i - 1)), w.length)


def enumerate_level(n: int, k: int) -> Iterator[Word]:
    """Yield every length-``n`` word with exactly ``k`` ones.

    Order is strictly increasing packed value, produced by Gosper's hack
    (next-higher int with the same popcount), so the stream is canonical and
    needs no materialized set.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k == 0:
        yield Word(0, n)
        return
    v = (1 << k) - 1
    limit = 1 << n
    while v < limit:
        yield Word(v, n)
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r


# ---------------------------------------------------------------------------
# q-functions
# ---------------------------------------------------------------------------

def q_int(n: int, q: Fraction) -> Fraction:
    """The q-integer ``1 + q + ... + q^(n-1)``; equals ``(1 - q^n)/(1 - q)``."""
    _fraction_parts(q)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    total = Fraction(0)
    power = Fraction(1)
    for _ in range(n):
        total += power
        power *= q
    return total


def q_factorial(n: int, q: Fraction) -> Fraction:
    """Product of the q-integers 1..n; empty product is 1."""
    _fraction_parts(q)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    result = Fraction(1)
    for i in range(1, n + 1):
        result *= q_int(i, q)
    return result


def _fraction_parts(q: Fraction, name: str = "q") -> tuple[int, int]:
    if not isinstance(q, Fraction):
        raise TypeError(f"{name} must be a Fraction, got {type(q).__name__}")
    return q.numerator, q.denominator


# Gaussian-binomial row prefixes, keyed by ``(a, b, n)`` with ``q = a/b`` in
# lowest terms.  Row ``n`` holds the integer numerators ``N(n, k)`` of
# ``[n, k]_q = N / b^(k(n-k))`` for ``k = 0..j`` only, with ``j`` the largest
# ``min(k, n-k)`` read so far, since ``N(n, k) = N(n, n-k)``.  A read extends
# the prefix by the ratio recurrence
# ``N(n, k+1) = N(n, k) (b^(n-k) - a^(n-k)) / (b^(k+1) - a^(k+1))``, whose
# division is exact, so an entry never depends on which reads came before.
# The cache holds at most 8 rows over all ``q``, the least recently read
# evicted first, so memory stays bounded by what is read, at any n and any
# number of ``q``.
@lru_cache(maxsize=8)
def _qbinom_row(a: int, b: int, n: int) -> list[int]:
    if not 0 < a < b:
        raise ValueError(f"q must satisfy 0 < q < 1, got {Fraction(a, b)}")
    return [1]


def q_binomial_numerator(n: int, k: int, q: Fraction) -> int:
    """Integer ``N`` with ``[n, k]_q = N / b^(k(n-k))`` for ``q = a/b`` in
    lowest terms: the stored entry itself, with no Fraction built."""
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    a, b = _fraction_parts(q)
    row, k = _qbinom_row(a, b, n), min(k, n - k)
    for j in range(len(row) - 1, k):
        row.append(row[j] * (b ** (n - j) - a ** (n - j)) // (b ** (j + 1) - a ** (j + 1)))
    return row[k]


def q_binomial(n: int, k: int, q: Fraction) -> Fraction:
    """Gaussian binomial ``[n, k]_q``, read from the row store."""
    return Fraction(q_binomial_numerator(n, k, q), q.denominator ** (k * (n - k)))


def q_pochhammer(x: Fraction, t: Fraction, n: int) -> Fraction:
    """Finite product ``(x; t)_n = prod_{i=0}^{n-1} (1 - x t^i)``."""
    _fraction_parts(x, "x")
    _fraction_parts(t, "t")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    result = Fraction(1)
    t_pow = Fraction(1)
    for _ in range(n):
        result *= 1 - x * t_pow
        t_pow *= t
    return result
