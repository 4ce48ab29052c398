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
``approx_error`` is the alpha-mix of the same level terms inside the ``|.|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .qcore import check_q, q_binomial_numerator
from .measures import QExchMeasure, _check_total_mass, _LevelRecord, q_bernoulli


@dataclass(frozen=True)
class MixingMeasure(_LevelRecord):
    """Weights ``alpha[i]`` on the grid points ``q^i``, ``i = 0..n``."""

    n: int
    q: Fraction
    alpha: tuple[Fraction, ...]

    _key = "alpha"
    _what = "mixing-measure"

    def __post_init__(self) -> None:
        _check_total_mass(sum(self._check_levels()), "mixing measure")


@dataclass(frozen=True)
class DistanceReport:
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
    lower: Optional[Fraction] = None

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


def _level_gaps(n: int, n1: int, k: int, q: Fraction) -> tuple[list[int], int]:
    """Signed level terms ``g[k1] / d`` of the k-projection of ``extreme(n, n1)``
    minus that of the q-Bernoulli measure at ``x = q^n1``, in integers over
    one denominator ``d = b^T N(n, n1)``, ``T`` the largest ``t`` below.  With
    ``q = a/b``, ``j = n1 - k1`` and ``N`` the integer numerators of the
    q-binomial cache, level ``k1 <= n1`` is (the others vanish)

        N(k, k1) a^e (N(n-k, j) b^(u+s) - P N(n, n1)) / (b^t N(n, n1))

    where ``e = j (k - k1)``, ``P = prod_{i<k1} (b^(n1-i) - a^(n1-i))``,
    ``s = sum_{i<k1} (n1 - i)``, ``u = n1 (n - n1) - j (n - k - j) >= 0`` and
    ``t = s + k1 (k - k1) + e``.  ``N(n-k, j)`` is zero when ``j > n - k``.
    """
    a, b = q.numerator, q.denominator
    whole = q_binomial_numerator(n, n1, q)
    terms = []
    poch, s = 1, 0
    for k1 in range(min(k, n1) + 1):
        j = n1 - k1
        e = j * (k - k1)
        extreme = 0
        if j <= n - k:
            u = n1 * (n - n1) - j * (n - k - j)
            extreme = q_binomial_numerator(n - k, j, q) * b ** (u + s)
        diff = extreme - poch * whole
        terms.append((q_binomial_numerator(k, k1, q) * a**e * diff, s + k1 * (k - k1) + e))
        poch *= b ** (n1 - k1) - a ** (n1 - k1)
        s += n1 - k1
    top = max(t for _, t in terms)
    return [x * b ** (top - t) for x, t in terms], whole * b**top


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
    its canonical q-Bernoulli mixture, from the level masses alone."""
    if not 0 <= k <= m.n:
        raise ValueError(f"need 0 <= k <= n = {m.n}, got k={k}")
    levels = [Fraction(0)] * (k + 1)
    for n1 in range(m.n + 1):
        alpha = m.level_mass(n1)
        if alpha:
            gaps, d = _level_gaps(m.n, n1, k, m.q)
            for k1, g in enumerate(gaps):
                levels[k1] += alpha * g / d
    return sum(map(abs, levels))
