"""Convex decomposition, q-Bernoulli mixtures, and the central distance.

Every q-exchangeable measure on ``{0,1}^n`` splits uniquely into a convex
combination of the level-supported extreme measures; the weights are the
level masses ``alpha_i = base[i] * [n, i]_q``.  Reading those weights as a
probability measure on the geometric grid ``{q^0, ..., q^n}`` (the record
``measures.MixingMeasure``) and mixing the corresponding q-Bernoulli measures
gives the canonical approximation whose projection error is the quantity this
package certifies.

The extreme-vs-Bernoulli distance has a closed form over target levels:

    D(n, n1, k) = sum_{k1=0}^{k} [k, k1]_q * q^((n1 - k1)(k - k1))
                  * | [n - k, n1 - k1]_q / [n, n1]_q  -  (q^n1; 1/q)_k1 |

which equals the total variation of the two k-dimensional pushforwards; its
first term is the level-``k1`` mass of the projected ``extreme(n, n1)``.  A
k-projection is the alpha-mix of the extremes' projections, so one integer
alpha-mix of the level terms serves ``D`` (a point mass) and ``approx_error``.
The binomial ratio is a ratio of q-Pochhammer products,

    [n - k, n1 - k1]_q / [n, n1]_q
        = (q^n1; 1/q)_k1 (q^(n-n1); 1/q)_(k-k1) / (q^n; 1/q)_k,

so every level term is built from ``O(k)`` factors and no size-n Gaussian
binomial is read.  Where ``k - k1 > n - n1`` the product
``(q^(n-n1); 1/q)_(k-k1)`` has the factor ``1 - q^0 = 0``, so one term formula
serves every level, over the shared ``(q^n; 1/q)_k``; a distance sums the
levels where every term is the q-Bernoulli one alone without that factor.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .qcore import check_q, q_binomial_numerator
from .measures import MixingMeasure, QExchMeasure, _q_bernoulli_base

_Masses = list[tuple[int, Fraction | int]]  # (n1, alpha) for the levels with mass, n1 increasing


def decompose(m: QExchMeasure) -> MixingMeasure:
    """Level masses of ``m`` as a mixing measure on ``{q^0, ..., q^n}``.

    The convex combination ``sum_i alpha[i] * extreme(n, i)`` rebuilds ``m``
    exactly, because ``alpha[i] / [n, i]_q = base[i]``.
    """
    alpha = tuple(m.level_mass(i) for i in range(m.n + 1))
    return MixingMeasure(m.n, m.q, alpha)


def mixture(mu: MixingMeasure, n: int) -> QExchMeasure:
    """Mix the q-Bernoulli measures ``x = q^i`` on ``{0,1}^n`` by ``mu``.

    Combination happens on base vectors, which are closed under convex
    combination, so the result stays exact at any n, and is validated once.
    """
    if n < mu.n:
        raise ValueError(f"mixing measure uses exponents up to {mu.n}, cannot mix on n={n}")
    base = [Fraction(0)] * (n + 1)
    for i, weight in enumerate(mu.alpha):
        if weight:
            for j, x in enumerate(_q_bernoulli_base(n, i, mu.q)):
                base[j] += weight * x
    return QExchMeasure(n, mu.q, tuple(base))


def _level_sums(n: int, k: int, q: Fraction, masses: _Masses) -> tuple[list[int], int, int]:
    """The alpha-mix ``sum_n1 alpha_n1 g_n1[k1]`` over the ``(n1, alpha)``
    pairs of ``masses`` (increasing ``n1``), of the level masses ``g_n1`` of
    the k-projection of ``extreme(n, n1)`` minus those of the q-Bernoulli
    measure at ``x = q^n1``: the sums of levels ``k1 = low..k``, the sum of
    the absolute values of the levels below ``low``, and their one
    denominator, all ints.

    With ``q = a/b`` and ``F_j = b^j - a^j``, each product of the
    Pochhammer-ratio identity (module docstring) is an integer over a power of
    ``b``: ``P_j / b^(sum of its exponents)`` for ``(q^n1; 1/q)_j`` with
    ``P_j = F_n1 ... F_(n1-j+1)``, likewise ``R_j`` for ``(q^(n-n1); 1/q)_j``
    and ``Q_j`` for ``(q^n; 1/q)_j``.  With ``N(k, k1)`` the numerator of
    ``[k, k1]_q``, ``e = (n1 - k1)(k - k1)``, ``sQ`` and ``sR`` the exponents
    of ``b`` under ``Q_k`` and ``R_(k-k1)``, level ``k1 <= n1`` of ``g_n1`` is
    (the others vanish)

        N(k, k1) a^e P_k1 (R_(k-k1) b^(sQ - sR) - Q_k) / (Q_k b^t),

    with ``t = n1 k - k1 (k1 - 1) / 2``.  Where the extreme measure puts no
    mass, ``k - k1 > n - n1``, the product ``R_(k-k1)`` meets ``F_0 = 0``.  The
    common denominator ``L Q_k b^(top k)``, with ``L`` the lcm of the mass
    denominators, is fixed before the loop over the levels; the row
    ``N(k, .)``, the factors ``F_j`` the levels read and ``Q_k`` are set up
    once, and each level is then one step.  The part of a term that does not
    depend on ``n1``, ``N(k, k1) b^(k1 (k1 - 1) / 2)`` and ``a^e`` at the
    lowest ``n1`` that reaches level ``k1``, is multiplied into each sum once,
    after the loop, so a point mass still takes one large product per level.
    Below ``low = k - (n - bottom)`` every term is the q-Bernoulli one alone,
    ``-N(k, k1) a^e P_k1 / b^t``: those sums are taken over ``L b^(top k)``,
    without ``Q_k``, and their absolute sum is brought to the common
    denominator by one product.  A point mass ``[(n1, 1)]`` has ``L = 1`` and
    weight 1, so its sums are its terms.
    """
    a, b = q.numerator, q.denominator
    bottom, top = masses[0][0], masses[-1][0]
    low = max(k - n + bottom, 0)
    # F_j for the j that P (levels bottom..top), R and Q_k read, so that one
    # level costs O(k) factors, not O(n); 0 elsewhere, where only products
    # that are already 0 or the last, unused update of a running product read
    factors = [0] * (n + 1)
    for j in {
        *range(max(bottom - k, 0) + 1, top + 1),
        *range(max(n - top - k, 0) + 1, n - bottom + 1),
        *range(n - k + 1, n + 1),
    }:
        factors[j] = b**j - a**j
    whole = math.prod(factors[n - j] for j in range(k))  # Q_k
    s_whole = n * k - k * (k - 1) // 2  # sQ
    lcm = math.lcm(*(alpha.denominator for _, alpha in masses))
    levels = [0] * (k + 1)
    for n1, alpha in masses:
        high, m = min(k, n1), n - n1
        # R_j b^(sQ - sR_j) for j = k-high..k, R_j = F_m F_(m-1) ... F_(m-j+1);
        # no power of b is built for the R_j past j = m, which meet F_0 = 0
        rest = math.prod(factors[m - i] for i in range(k - high))
        rests = []
        for j in range(k - high, k + 1):
            rests.append(rest and rest * b ** (s_whole - j * m + j * (j - 1) // 2))
            rest *= factors[m - j]
        # P_k1 times the level's weight, padded to b^(top k)
        poch = alpha.numerator * (lcm // alpha.denominator) * b ** ((top - n1) * k)
        for k1 in range(high + 1):
            if x := poch if k1 < low else poch * (rests[high - k1] - whole):
                levels[k1] += a ** ((n1 - max(bottom, k1)) * (k - k1)) * x
            poch *= factors[n1 - k1]
    for k1, x in enumerate(levels):
        if x:  # a's power is that of the lowest n1 that reaches level k1
            e = (max(bottom, k1) - k1) * (k - k1)
            levels[k1] = x * (q_binomial_numerator(k, k1, q) * b ** (k1 * (k1 - 1) // 2) * a**e)
    return levels[low:], whole * sum(levels[:low]), lcm * whole * b ** (top * k)


def _distance(n: int, k: int, q: Fraction, masses: _Masses) -> Fraction:
    """The TV distance: the absolute sum of the :func:`_level_sums` levels, in one Fraction."""
    levels, below, d = _level_sums(n, k, q, masses)
    return Fraction(sum(map(abs, levels)) + below, d)


def extreme_vs_bernoulli_distance(n: int, n1: int, k: int, q: Fraction) -> Fraction:
    """Exact TV distance between the k-projections of ``extreme(n, n1)`` and
    the q-Bernoulli measure at ``x = q^n1``, by the closed-form level sum."""
    check_q(q)
    if not (0 <= k <= n and 0 <= n1 <= n):
        raise ValueError(f"need 0 <= k <= n and 0 <= n1 <= n, got n={n}, n1={n1}, k={k}")
    return _distance(n, k, q, [(n1, 1)])


def approx_error(m: QExchMeasure, k: int) -> Fraction:
    """TV distance between the k-projections of ``m`` and of its canonical
    q-Bernoulli mixture: :func:`_distance` over the level masses of ``m``."""
    if not 0 <= k <= m.n:
        raise ValueError(f"need 0 <= k <= n = {m.n}, got k={k}")
    masses = [(n1, alpha) for n1 in range(m.n + 1) if (alpha := m.level_mass(n1))]
    return _distance(m.n, k, m.q, masses)
