"""Leading-coordinate projections and total-variation distance.

Projecting a q-exchangeable measure onto its first ``k`` coordinates yields a
q-exchangeable measure again, so the pushforward stays in compact form: the
mix of the projected extreme measures by the level masses, whose level sums
:func:`project` takes from the integer level sum in ``definetti``.  The two
closed forms give the block values of a projected extreme and q-Bernoulli
measure; the latter's factor ``(q^n1; 1/q)_k1`` is :func:`q_pochhammer`.  They
differ by one ratio of Pochhammer products, since the binomial ratio in the
extreme block value is itself one:

    [n - k, n1 - k1]_q / [n, n1]_q
        = (q^n1; 1/q)_k1 (q^(n-n1); 1/q)_(k-k1) / (q^n; 1/q)_k.

Total variation is the plain L1 sum ``sum_w |a(w) - b(w)|``, which equals
twice the supremum of ``|a(A) - b(A)|`` over events; for two compact measures
with the same q the sum collapses to the level masses,
``sum_k1 |a.level_mass(k1) - b.level_mass(k1)|``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .qcore import check_q, q_binomial_numerator, q_pochhammer
from .measures import DenseMeasure, QExchMeasure, to_dense
from .definetti import _level_masses, _level_sums

Measure = QExchMeasure | DenseMeasure


def project(m: QExchMeasure, k: int) -> QExchMeasure:
    """Pushforward of ``m`` onto its first ``k`` coordinates: each level sum of
    :func:`_level_sums` over ``m``'s level masses divided by ``[k, k1]_q``."""
    if k == m.n:
        return m
    levels, d = _level_sums(m.n, k, m.q, _level_masses(m, k), bernoulli=False)
    b, g = m.q.denominator, math.gcd(d, *levels)  # most of d is common to every level
    base = [Fraction(x // g * b ** (k1 * (k - k1)), d // g * q_binomial_numerator(k, k1, m.q))
            for k1, x in enumerate(levels)]
    return QExchMeasure(k, m.q, tuple(base))


def project_extreme_closed_form(n: int, n1: int, k: int, k1: int, q: Fraction) -> Fraction:
    """Block value of the projected level-``n1`` extreme measure.

    Returns ``q^((n1 - k1)(k - k1)) * [n - k, n1 - k1]_q / [n, n1]_q``, the
    projected q-Bernoulli block value times ``(q^(n-n1); 1/q)_(k-k1) / (q^n; 1/q)_k``
    by the Pochhammer-ratio identity of the module docstring.  Out-of-range
    inner binomials come out zero, matching the zero mass the brute-force
    pushforward assigns to those corners: ``k1 > n1`` zeroes the Bernoulli
    factor and ``k - k1 > n - n1`` the first Pochhammer product.
    """
    check_q(q)
    if not (0 <= k1 <= k <= n and 0 <= n1 <= n):
        raise ValueError(f"need 0 <= k1 <= k <= n and 0 <= n1 <= n, got n={n}, n1={n1}, k={k}, k1={k1}")
    return (
        project_bernoulli_closed_form(n1, k, k1, q)
        * q_pochhammer(q ** (n - n1), 1 / q, k - k1)
        / q_pochhammer(q**n, 1 / q, k)
    )


def project_bernoulli_closed_form(n1: int, k: int, k1: int, q: Fraction) -> Fraction:
    """Block value of the projected q-Bernoulli measure with ``x = q^n1``.

    Returns ``q^((n1 - k1)(k - k1)) * (q^n1; 1/q)_k1``; the Pochhammer factor
    vanishes whenever ``k1 > n1``, so no explicit range guard is needed.
    """
    check_q(q)
    if not 0 <= k1 <= k:
        raise ValueError(f"need 0 <= k1 <= k, got k={k}, k1={k1}")
    if n1 < 0:
        raise ValueError(f"need n1 >= 0, got {n1}")
    return q ** ((n1 - k1) * (k - k1)) * q_pochhammer(q**n1, 1 / q, k1)


def tv_distance(a: Measure, b: Measure) -> Fraction:
    """L1 total-variation distance between two same-dimension measures.

    Two compact measures with equal q are compared level by level without
    tabulation; any other combination falls back to dense tables (subject to
    the dense size guard).
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    if isinstance(a, QExchMeasure) and isinstance(b, QExchMeasure) and a.q == b.q:
        return sum(abs(a.level_mass(k1) - b.level_mass(k1)) for k1 in range(a.n + 1))
    da, db = (m if isinstance(m, DenseMeasure) else to_dense(m) for m in (a, b))
    return sum(abs(x - y) for x, y in zip(da.weights, db.weights))
