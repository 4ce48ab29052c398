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
summed in integers over one common denominator fixed before the sum and
reduced once at the end.
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


class _LevelKernel:
    """Signed level terms of the k-projection of ``extreme(n, n1)`` minus that
    of the q-Bernoulli measure at ``x = q^n1``, for the levels ``n1`` in
    ``bottom..top`` at one ``(n, k, q)``, in integers over one denominator.

    With ``q = a/b`` and ``F_j = b^j - a^j``, each product of the
    Pochhammer-ratio identity (module docstring) is an integer over a power of
    ``b``: ``P_j / b^(sum of its exponents)`` for ``(q^n1; 1/q)_j`` with
    ``P_j = F_n1 ... F_(n1-j+1)``, likewise ``R_j`` for ``(q^(n-n1); 1/q)_j``
    and ``Q_j`` for ``(q^n; 1/q)_j``.  ``R_(k-k1)`` is zero below level
    ``low = max(0, k - (n - n1))``, where the extreme measure puts no mass, and
    the first ``low`` factors of ``P`` are the last of ``Q_k``:
    ``Q_k = Q_(k-low) P_low``.  With ``N(k, k1)`` the numerator of
    ``[k, k1]_q``, ``e = (n1 - k1)(k - k1)``, ``sQ`` and ``sR`` the exponents
    of ``b`` under ``Q_k`` and ``R_(k-k1)``, level ``k1 <= n1`` is (the others
    vanish)

        N(k, k1) a^e (P_k1 / P_low) (R_(k-k1) b^(sQ - sR) - Q_k) / (Q_(k-low) b^t)   for k1 >= low,
        -N(k, k1) a^e P_k1 / b^t                                                      for k1 < low,

    with ``t = n1 k - k1 (k1 - 1) / 2``.  ``low`` grows with ``n1``, so the
    ``Q_(k-low)`` of every level divides that of ``bottom``, and
    ``Q_(k-low(bottom)) b^(top k)`` is a common denominator of all the levels.

    The set-up runs once: the row ``N(k, .)``, the factors ``F_j`` the levels
    read, ``Q_k`` and the cofactors ``Q_(k-low(bottom)) / Q_(k-low)``.
    :meth:`gaps` then runs once per level, and keeps the ``low`` cancellation:
    a level near the top multiplies by ``P_k1 / P_low``, not by ``P_k1``.
    """

    __slots__ = ("n", "k", "a", "b", "top", "binoms", "factors", "cofactors", "whole", "s_whole", "denominator")

    def __init__(self, n: int, k: int, q: Fraction, bottom: int, top: int) -> None:
        a, b = q.numerator, q.denominator
        self.n, self.k, self.a, self.b, self.top = n, k, a, b, top
        self.binoms = [q_binomial_numerator(k, k1, q) for k1 in range(k + 1)]
        # F_j for the j that P (levels bottom..top), R and Q_k read, so that one
        # level costs O(k) factors, not O(n); 0 elsewhere, where only the last,
        # unused update of a step's running product reads
        self.factors = factors = [0] * (n + 1)
        for j in {
            *range(max(bottom - k, 0) + 1, top + 1),
            *range(max(n - top - k, 0) + 1, n - bottom + 1),
            *range(n - k + 1, n + 1),
        }:
            factors[j] = b**j - a**j
        # cofactors[j] = Q_c / Q_j for c = k - low(bottom), built from Q_c's last factor down
        c = k - self._low(bottom)
        self.cofactors = cofactors = [1] * (c + 1)
        for j in range(c - 1, -1, -1):
            cofactors[j] = cofactors[j + 1] * factors[n - j]
        self.whole = math.prod((factors[n - j] for j in range(c, k)), start=cofactors[0])
        self.s_whole = n * k - k * (k - 1) // 2  # sQ
        self.denominator = cofactors[0] * b ** (top * k)

    def _low(self, n1: int) -> int:
        return max(0, self.k - (self.n - n1))

    def gaps(self, n1: int) -> list[int]:
        """Level terms ``g[k1]``, ``k1 = 0..min(k, n1)``, of level ``n1`` over
        :attr:`denominator`."""
        n, k, a, b, factors, binoms = self.n, self.k, self.a, self.b, self.factors, self.binoms
        low, high, m = self._low(n1), min(k, n1), n - n1
        # R_j b^(sQ - sR_j) for j = k-high..k-low, R_j = F_m F_(m-1) ... F_(m-j+1)
        rest = math.prod(factors[m - i] for i in range(k - high))
        rests = []
        for j in range(k - high, k - low + 1):
            rests.append(rest * b ** (self.s_whole - j * m + j * (j - 1) // 2))
            rest *= factors[m - j]
        shift = (self.top - n1) * k
        out = []
        poch = -self.cofactors[0]  # -Q_(k-low(bottom)) P_k1, then the cofactor times P_k1 / P_low
        for k1 in range(high + 1):
            if k1 == low:
                poch = self.cofactors[k - low]
            x = poch if k1 < low else poch * (rests[high - k1] - self.whole)
            out.append(binoms[k1] * a ** ((n1 - k1) * (k - k1)) * b ** (shift + k1 * (k1 - 1) // 2) * x)
            poch *= factors[n1 - k1]
        return out


def extreme_vs_bernoulli_distance(n: int, n1: int, k: int, q: Fraction) -> Fraction:
    """Exact TV distance between the k-projections of ``extreme(n, n1)`` and
    the q-Bernoulli measure at ``x = q^n1``, by the closed-form level sum."""
    check_q(q)
    if not (0 <= k <= n and 0 <= n1 <= n):
        raise ValueError(f"need 0 <= k <= n and 0 <= n1 <= n, got n={n}, n1={n1}, k={k}")
    kernel = _LevelKernel(n, k, q, n1, n1)
    return Fraction(sum(map(abs, kernel.gaps(n1))), kernel.denominator)


def approx_error(m: QExchMeasure, k: int) -> Fraction:
    """TV distance between the k-projection of ``m`` and the k-projection of
    its canonical q-Bernoulli mixture, from the level masses alone.

    One :class:`_LevelKernel`, set up for the levels from the lowest to the
    highest with mass, gives every level's terms ``g_n1[k1]`` over one
    denominator ``d``.  With ``L`` the lcm of the level-mass denominators,
    the sum ``sum_n1 alpha_n1 g_n1[k1]`` is a plain int over ``L d``, a
    denominator fixed before the loop, so only ``k + 1`` ints are held and
    one ``Fraction`` is built at the end."""
    if not 0 <= k <= m.n:
        raise ValueError(f"need 0 <= k <= n = {m.n}, got k={k}")
    masses = [(n1, alpha) for n1 in range(m.n + 1) if (alpha := m.level_mass(n1))]
    kernel = _LevelKernel(m.n, k, m.q, masses[0][0], masses[-1][0])
    lcm = math.lcm(*(alpha.denominator for _, alpha in masses))
    levels = [0] * (k + 1)
    for n1, alpha in masses:
        weight = alpha.numerator * (lcm // alpha.denominator)
        for k1, g in enumerate(kernel.gaps(n1)):
            levels[k1] += weight * g
    return Fraction(sum(map(abs, levels)), lcm * kernel.denominator)
