"""Independent brute-force oracles shared by the test modules.

Everything here recomputes quantities from first principles (pair
enumeration, suffix summation, subset enumeration, series expansions) so the
library's fast paths are checked against code that shares none of their
logic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from qexchange import (
    DenseMeasure,
    QExchMeasure,
    Word,
    decompose,
    mixture,
    q_binomial_numerator,
    to_dense,
    tv_distance,
)


def pair_statistics(bits: tuple[int, ...]) -> tuple[int, int]:
    """(descent pairs, ascent pairs) by direct enumeration of all i < j."""
    inv = coinv = 0
    for i in range(len(bits)):
        for j in range(i + 1, len(bits)):
            if bits[i] > bits[j]:
                inv += 1
            elif bits[i] < bits[j]:
                coinv += 1
    return inv, coinv


def brute_level_sum(n: int, k: int, q, statistic) -> object:
    """Sum q^statistic over every length-n word with k ones, via itertools."""
    total = q * 0
    for packed in range(1 << n):
        w = Word(packed, n)
        if w.ones == k:
            total += q ** statistic(w)
    return total


def q_binomial_row(n: int, q: Fraction) -> list[Fraction]:
    """Row ``n`` of Gaussian binomials by the product formula
    ``[n, k] = prod_{i=1..k} (1 - q^(n-k+i)) / (1 - q^i)``, in Fractions.

    Each entry extends the previous one by the single factor
    ``(1 - q^(n-k+1)) / (1 - q^k)``, so a row costs ``n`` multiplications.
    """
    row = [Fraction(1)]
    for k in range(1, n + 1):
        row.append(row[-1] * (1 - q ** (n - k + 1)) / (1 - q**k))
    return row


def level_mass_by_fractions(base: Fraction, n: int, k: int, q: Fraction) -> Fraction:
    """``base * [n, k]_q`` as two Fraction operations on the row entry ``N``
    and ``b^(k(n-k))``, each cancelling its own gcds, where
    ``QExchMeasure.level_mass`` divides out the common factors itself."""
    return base and base * q_binomial_numerator(n, k, q) / q.denominator ** (k * (n - k))


def upper_constant_double_sum(k: int, q: Fraction) -> Fraction:
    """``upper_constant`` by its defining double sum: for every level ``k1``
    the larger of ``B1 = sum_{i<k} q^-i / (1-q)^k`` and
    ``B2(k1) = sum_{i<k-k1} q^(k1(k1-k) - i) / (1-q)^k``, weighted by
    ``[k, k1]_q`` from the product formula."""
    denom = (1 - q) ** k
    b1 = sum((q**-i for i in range(k)), Fraction(0)) / denom
    total = Fraction(0)
    for k1, weight in enumerate(q_binomial_row(k, q)):
        b2 = sum((q ** (k1 * (k1 - k) - i) for i in range(k - k1)), Fraction(0)) / denom
        total += weight * max(b1, b2)
    return total


def suffix_sum_project(m: QExchMeasure, k: int) -> QExchMeasure:
    """Pushforward onto the first ``k`` coordinates by the suffix sum over
    source levels, in Fractions.

    Target level ``k1`` receives mass from each source level ``j`` with weight
    ``q^((j - k1)(k - k1)) * [n - k, j - k1]_q``: the suffixes of ``n - k``
    bits with ``j - k1`` ones, each weighed by its coinversions and those it
    makes with the prefix.  Row ``n - k`` comes from the product formula, so
    nothing here shares the library's level sums or row store.
    """
    row = q_binomial_row(m.n - k, m.q)
    base = []
    for k1 in range(k + 1):
        acc = Fraction(0)
        for j in range(k1, k1 + (m.n - k) + 1):
            if m.base[j] == 0:
                continue
            acc += m.q ** ((j - k1) * (k - k1)) * row[j - k1] * m.base[j]
        base.append(acc)
    return QExchMeasure(k, m.q, tuple(base))


def materialised_approx_error(m: QExchMeasure, k: int) -> Fraction:
    """The projection error by building the canonical mixture on ``{0,1}^n``.

    Mixes ``n + 1`` q-Bernoulli measures by the level masses of ``m``, then
    projects both measures by :func:`suffix_sum_project` and sums their TV
    distance: none of the level-sum algebra that ``approx_error`` evaluates.
    """
    return tv_distance(suffix_sum_project(m, k), suffix_sum_project(mixture(decompose(m), m.n), k))


def dense_projection_table(m: QExchMeasure, k: int) -> list:
    """Pushforward onto the first k coordinates by explicit suffix summation.

    Tabulates the full measure and folds out trailing coordinates one at a
    time; independent of the level-sum formulas of the library and of
    :func:`suffix_sum_project`.
    """
    table = list(to_dense(m).weights)
    dim = m.n
    while dim > k:
        dim -= 1
        table = [table[p] + table[p | (1 << dim)] for p in range(1 << dim)]
    return table


def tv_by_subsets(a: DenseMeasure, b: DenseMeasure):
    """2 * max_A |a(A) - b(A)| over all 2^(2^n) subsets, by enumeration."""
    size = 1 << a.n
    best = abs(a.weights[0] * 0)
    for mask in range(1 << size):
        diff = a.weights[0] * 0
        for p in range(size):
            if (mask >> p) & 1:
                diff += a.weights[p] - b.weights[p]
        best = max(best, abs(diff))
    return 2 * best


def literal_bernoulli_base(n: int, exponent: int, q: Fraction) -> tuple[Fraction, ...]:
    """Cylinder values q^(-j(n-j)) x^(n-j) (x; 1/q)_j with x = q^exponent.

    The literal polynomial, negative powers and all; exact arithmetic makes
    it safe, and it must coincide with the library's rewritten form.
    """
    x = q**exponent
    base = []
    for j in range(n + 1):
        poch = Fraction(1)
        for i in range(j):
            poch *= 1 - x * q**-i
        base.append(q ** (-j * (n - j)) * x ** (n - j) * poch)
    return tuple(base)


def chi2_sf(x: float, dof: int) -> float:
    """Survival function of the chi-square distribution.

    Regularized upper incomplete gamma Q(dof/2, x/2), by the classic series
    for small x and Lentz's continued fraction otherwise.  Accurate to well
    under 1e-8 over the ranges tests use; checked against published table
    values in test_acceptance.
    """
    if x < 0 or dof < 1:
        raise ValueError("need x >= 0 and dof >= 1")
    a, half_x = dof / 2.0, x / 2.0
    if x == 0:
        return 1.0
    lg = math.lgamma(a)
    if half_x < a + 1:
        # lower series: P(a, x) = x^a e^-x sum x^n / (a)_{n+1}
        term = 1.0 / a
        total = term
        for n in range(1, 500):
            term *= half_x / (a + n)
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        p = total * math.exp(-half_x + a * math.log(half_x) - lg)
        return 1.0 - p
    # upper continued fraction (modified Lentz)
    tiny = 1e-300
    b = half_x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-half_x + a * math.log(half_x) - lg)
