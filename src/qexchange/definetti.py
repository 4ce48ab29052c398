"""Convex decomposition, q-Bernoulli mixtures, and the central distance.

Every q-exchangeable measure on ``{0,1}^n`` splits uniquely into a convex
combination of the level-supported extreme measures; the weights are the
level masses ``alpha_i = base[i] * [n, i]_q``.  Reading those weights as a
probability measure on the geometric grid ``{q^0, ..., q^n}`` and mixing the
corresponding q-Bernoulli measures gives the canonical approximation whose
projection error is the quantity this package certifies.

The extreme-vs-Bernoulli distance has a closed form over target levels:

    D(n, n1, k) = sum_{k1=0}^{k} [k, k1]_q * q^((n1 - k1)(k - k1))
                  * | [n - k, n1 - k1]_q / [n, n1]_q  -  (q^n1; 1/q)_k1 |

which equals the total variation of the two k-dimensional pushforwards.
``approx_error`` is the alpha-mix of the same level terms inside the ``|.|``,
summed in integers over one common denominator and reduced once at the end.
The binomial ratio is a ratio of q-Pochhammer products,

    [n - k, n1 - k1]_q / [n, n1]_q
        = (q^n1; 1/q)_k1 (q^(n-n1); 1/q)_(k-k1) / (q^n; 1/q)_k,

so every level term is built from ``O(k)`` factors and no size-n Gaussian
binomial is read.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .qcore import _Record, check_q, q_binomial_numerator
from .measures import QExchMeasure, _check_total_mass, _LevelRecord, q_bernoulli


class MixingMeasure(_LevelRecord):
    """Weights ``alpha[i]`` on the grid points ``q^i``, ``i = 0..n``."""

    n: int
    q: Fraction
    alpha: tuple[Fraction, ...]

    _key = "alpha"
    _what = "mixing-measure"

    def __post_init__(self) -> None:
        _check_total_mass(sum(self._check_levels()), "mixing measure")


class DistanceReport(_Record):
    """One grid point of a rate sweep: the distance and its two bounds.

    ``upper`` is ``upper_constant(k, q) * q^n``; ``lower`` is
    ``lower_constant(k, q) * q^n`` and is only attached when ``n1 >= k >= 1``,
    the regime where the lower bound is proved.  ``bounds_ok`` is the
    inequality pair itself; sweep drivers assert it rather than tolerate it.
    """

    n: int
    k: int
    n1: int
    q: Fraction
    distance: Fraction
    upper: Fraction
    lower: Fraction | None = None

    @property
    def bounds_ok(self) -> bool:
        if self.distance > self.upper:
            return False
        return self.lower is None or self.lower <= self.distance

    @property
    def dist_over_qn(self) -> Fraction:
        return self.distance / self.q**self.n


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
    combination, so the result stays exact at any n.
    """
    if n < mu.n:
        raise ValueError(f"mixing measure uses exponents up to {mu.n}, cannot mix on n={n}")
    base = [Fraction(0)] * (n + 1)
    for i, weight in enumerate(mu.alpha):
        if weight == 0:
            continue
        component = q_bernoulli(n, i, mu.q)
        for j in range(n + 1):
            base[j] += weight * component.base[j]
    return QExchMeasure(n, mu.q, tuple(base))


def _pochhammer_prefixes(m: int, r: int, a: int, b: int) -> list[tuple[int, int]]:
    """``(b^s (q^m; 1/q)_j, s)`` for ``j = 0..r`` and ``q = a/b``, ``r <= m``:
    the integer product ``prod_{i<j} (b^(m-i) - a^(m-i))`` and its summed
    exponent ``s = sum_{i<j} (m - i)``."""
    out = [(1, 0)]
    for i in range(r):
        prod, s = out[-1]
        out.append((prod * (b ** (m - i) - a ** (m - i)), s + m - i))
    return out


def _level_gaps(n: int, n1: int, k: int, q: Fraction) -> tuple[list[int], int]:
    """Signed level terms ``g[k1] / d`` of the k-projection of ``extreme(n, n1)``
    minus that of the q-Bernoulli measure at ``x = q^n1``, in integers over
    one denominator ``d = b^T D``, ``T`` the largest ``t`` below.

    With ``q = a/b`` write each product of the Pochhammer-ratio identity (module
    docstring) as an integer over a power of ``b`` (:func:`_pochhammer_prefixes`):
    ``P / b^s`` for ``(q^n1; 1/q)_k1``, ``R / b^sR`` for
    ``(q^(n-n1); 1/q)_(k-k1)`` and ``Q / b^sQ`` for ``(q^n; 1/q)_k``.  ``R`` is
    zero below level ``low = max(0, k - (n - n1))``, where the extreme measure
    puts no mass, and the first ``low`` factors of ``P`` are the last of ``Q``:
    ``Q = D P_low``.  With ``N(k, k1)`` the numerator of ``[k, k1]_q`` and
    ``e = (n1 - k1)(k - k1)``, level ``k1 <= n1`` is (the others vanish)

        N(k, k1) a^e (P / P_low) (R b^sQ - Q b^sR) / (b^t D)   for k1 >= low,
        -N(k, k1) a^e P D / (b^t D)                             for k1 < low,

    with ``t = s + k1 (k - k1) + e``, plus ``sR`` from level ``low`` on.
    """
    a, b = q.numerator, q.denominator
    low = max(0, k - (n - n1))
    denom, s_denom = _pochhammer_prefixes(n, k - low, a, b)[-1]
    rests = _pochhammer_prefixes(n - n1, k - low, a, b)
    terms = []
    poch, s = 1, 0  # P, and P / P_low from level low on
    for k1 in range(min(k, n1) + 1):
        if k1 == low:
            whole, b_whole = denom * poch, b ** (s_denom + s)  # Q and b^sQ
            poch = 1
        e = (n1 - k1) * (k - k1)
        t = s + k1 * (k - k1) + e
        if k1 < low:
            x = -poch * denom
        else:
            rest, s_rest = rests[k - k1]
            x = poch * (rest * b_whole - whole * b**s_rest)
            t += s_rest
        terms.append((q_binomial_numerator(k, k1, q) * a**e * x, t))
        poch *= b ** (n1 - k1) - a ** (n1 - k1)
        s += n1 - k1
    t_max = max(t for _, t in terms)
    return [x * b ** (t_max - t) for x, t in terms], denom * b**t_max


def extreme_vs_bernoulli_distance(n: int, n1: int, k: int, q: Fraction) -> Fraction:
    """Exact TV distance between the k-projections of ``extreme(n, n1)`` and
    the q-Bernoulli measure at ``x = q^n1``, by the closed-form level sum."""
    check_q(q)
    if not (0 <= k <= n and 0 <= n1 <= n):
        raise ValueError(f"need 0 <= k <= n and 0 <= n1 <= n, got n={n}, n1={n1}, k={k}")
    gaps, d = _level_gaps(n, n1, k, q)
    return Fraction(sum(map(abs, gaps)), d)


def approx_error(m: QExchMeasure, k: int) -> Fraction:
    """TV distance between the k-projection of ``m`` and the k-projection of
    its canonical q-Bernoulli mixture, from the level masses alone.

    Each level sum ``sum_n1 alpha_n1 g_n1[k1] / d_n1`` (:func:`_level_gaps`)
    is kept as a plain int over one common denominator, the running lcm of
    the reduced denominators ``alpha_n1.denominator * d_n1``, so only ``k + 1``
    ints are held; one ``Fraction`` is built at the end."""
    if not 0 <= k <= m.n:
        raise ValueError(f"need 0 <= k <= n = {m.n}, got k={k}")
    levels, common = [0] * (k + 1), 1
    for n1 in range(m.n + 1):
        alpha = m.level_mass(n1)
        if alpha:
            gaps, d = _level_gaps(m.n, n1, k, m.q)
            den = alpha.denominator * d
            grown = math.lcm(common, den)
            levels = [x * (grown // common) for x in levels]
            common = grown
            scale = alpha.numerator * (common // den)
            for k1, g in enumerate(gaps):
                levels[k1] += scale * g
    return Fraction(sum(map(abs, levels)), common)
