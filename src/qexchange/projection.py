"""Leading-coordinate projections and total-variation distance.

Projecting a q-exchangeable measure onto its first ``k`` coordinates yields a
q-exchangeable measure again, so the pushforward stays in compact form.
:func:`project` sums out the last coordinate ``n - k`` times: a length-``L``
measure loses its last bit as ``base'[j] = base[j] + q^(L-1-j) base[j+1]``,
which on the level masses ``alpha_j = base[j] [L, j]_q`` reads, with
``q = a/b`` and ``F_j = b^j - a^j`` (so ``1 - q^j = F_j / b^j``),

    alpha'_j = (alpha_j b^j F_(L-j) + alpha_(j+1) a^(L-1-j) F_(j+1)) / F_L,

by ``[L-1, j]_q / [L, j]_q = (1 - q^(L-j)) / (1 - q^L)`` and
``[L-1, j]_q / [L, j+1]_q = (1 - q^(j+1)) / (1 - q^L)``.

The two closed forms give the block values of a projected extreme and
q-Bernoulli measure; the latter's factor ``(q^n1; 1/q)_k1`` is
:func:`q_pochhammer`.  They differ by one ratio of Pochhammer products, since
the binomial ratio in the extreme block value is itself one:

    [n - k, n1 - k1]_q / [n, n1]_q
        = (q^n1; 1/q)_k1 (q^(n-n1); 1/q)_(k-k1) / (q^n; 1/q)_k.

Total variation is the plain L1 sum ``sum_w |a(w) - b(w)|``, which equals
twice the supremum of ``|a(A) - b(A)|`` over events; for two compact measures
with the same q the sum collapses to the level masses,
``sum_k1 |a.level_mass(k1) - b.level_mass(k1)|``, summed as ints over the lcm
of their denominators.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .qcore import check_q, q_binomial_numerator, q_pochhammer
from .measures import DenseMeasure, QExchMeasure, _over_lcm, to_dense

Measure = QExchMeasure | DenseMeasure


def project(m: QExchMeasure, k: int) -> QExchMeasure:
    """Pushforward of ``m`` onto its first ``k`` coordinates: ``n - k`` steps of the
    module docstring in ints over one denominator, then each level over ``[k, j]_q``."""
    n, a, b = m.n, m.q.numerator, m.q.denominator
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n = {n}, got k={k}")
    if k == n:
        return m
    pa, pb = [a**i for i in range(n + 1)], [b**i for i in range(n + 1)]
    f = [y - x for x, y in zip(pa, pb)]  # F_i
    alpha, d = _over_lcm([m.level_mass(j) for j in range(n + 1)])
    for L in range(n, k, -1):
        alpha = [x * (pb[j] * f[L - j]) + y * (pa[L - 1 - j] * f[j + 1])
                 for j, (x, y) in enumerate(zip(alpha, alpha[1:]))]
        d *= f[L]
    g = math.gcd(d, *alpha)  # most of d is common to every level
    base = [Fraction(x // g * b ** (j * (k - j)), d // g * q_binomial_numerator(k, j, m.q))
            for j, x in enumerate(alpha)]
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
        levels = range(a.n + 1)
        ints, lcm = _over_lcm([*map(a.level_mass, levels), *map(b.level_mass, levels)])
        return Fraction(sum(abs(x - y) for x, y in zip(ints, ints[a.n + 1:])), lcm)
    da, db = (m if isinstance(m, DenseMeasure) else to_dense(m) for m in (a, b))
    return sum(abs(x - y) for x, y in zip(da.weights, db.weights))
