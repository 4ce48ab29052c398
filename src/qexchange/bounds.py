"""Explicit rate constants and certified convergence sweeps.

The projection error of the canonical q-Bernoulli mixture decays like
``q^n`` with a constant depending only on the projection width ``k``, and
that order is optimal.  This module pins down both constants explicitly:

``upper_constant(k, q)`` sums, over target levels ``k1``, the Gaussian
binomial weight times the larger of two per-level bounds extracted from the
case analysis of the distance terms,

    B1      = G(k) / (1-q)^k                         (level k1 = k, and the
                                                      nonnegative-sign case)
    B2(k1)  = q^(k1(k1-k)) G(k - k1) / (1-q)^k        for k1 < k,

with the geometric prefix sums ``G(m) = sum_{i<m} q^-i``, so
``D(n, n1, k) <= upper_constant(k, q) * q^n`` uniformly in ``n1``.  The
prefix sums are formed once, in integers, and the levels ``k1`` and
``k - k1``, which share their weight and power of ``q``, are summed as a pair
by Horner's rule over ``k1 = 0..k//2``, so no term is padded to the largest
power: ``O(k)`` integer operations and one ``Fraction``.

``lower_constant(k, q) = (1-q)^(k-1) (q^(1-k) - q)`` bounds the distance from
below, ``D >= lower_constant * q^n``, whenever ``n1 >= k``; it comes from the
single level ``k1 = k`` term together with the technical inequality exposed
by :func:`tech_lemma_lhs_rhs`.

Every constant is an exact Fraction and every inequality check is exact.
The only tolerance-bearing computation in the module is the least-squares
slope fit, which rounds each distance to float once.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .qcore import _Record, check_q, q_binomial_numerator, q_pochhammer
from .definetti import extreme_vs_bernoulli_distance


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
        return self.distance <= self.upper and (self.lower is None or self.lower <= self.distance)

    @property
    def dist_over_qn(self) -> Fraction:
        return self.distance / self.q**self.n


class RateViolationError(Exception):
    """A proven inequality failed; carries the offending report.

    This must never happen in a correct build, so callers treat it as a
    build-stopping defect rather than a recoverable condition.
    """

    def __init__(self, report: DistanceReport, reports: list[DistanceReport]):
        self.report = report
        self.reports = reports
        bound = "upper" if report.distance > report.upper else "lower"
        super().__init__(
            f"{bound} bound violated at n={report.n}, n1={report.n1}, k={report.k}: "
            f"distance={report.distance}, upper={report.upper}, lower={report.lower}"
        )


def upper_constant(k: int, q: Fraction) -> Fraction:
    """Uniform-in-``n1`` constant with ``D(n, n1, k) <= c_k * q^n``."""
    check_q(q)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return Fraction(0)
    # In integers over powers of a and b, for q = a/b: G(m) = g[m] / a^(m-1),
    # and level k1 with c = k1 (k - k1) is [k, k1]_q max(B1, B2) =
    # N(k, k1) max(g[k] a^c, b^c g[k - k1] a^k1) / (b^c a^(c+k-1) (1-q)^k).
    a, b = q.numerator, q.denominator
    g = [0]
    for m in range(k):
        g.append(g[-1] * a + b**m)
    # Levels k1 and k - k1 share c and N(k, k1), and c rises with k1 up to
    # k // 2: Horner's rule multiplies the sum by (ab)^d as c rises by d, so
    # it ends over (ab)^c for the largest c and no term is padded to it.
    total, c, a_c, b_c = 0, 0, 1, 1
    for k1 in range(k // 2 + 1):
        d = k1 * (k - k1) - c
        a_d, b_d = a**d, b**d
        total *= a_d * b_d
        c, a_c, b_c = c + d, a_c * a_d, b_c * b_d
        whole = g[k] * a_c
        level = sum(max(whole, b_c * g[k - j] * a**j) for j in {k1, k - k1})
        total += q_binomial_numerator(k, k1, q) * level
    return Fraction(total * b**k, (a * b) ** c * a ** (k - 1) * (b - a) ** k)


def lower_constant(k: int, q: Fraction) -> Fraction:
    """Sharpness constant with ``D(n, n1, k) >= c~_k * q^n`` for ``n1 >= k``."""
    check_q(q)
    if k < 1:
        raise ValueError(f"lower bound requires k >= 1, got {k}")
    return (1 - q) ** (k - 1) * (q ** (1 - k) - q)


def tech_lemma_lhs_rhs(n: int, k: int, q: Fraction) -> tuple[Fraction, Fraction]:
    """Both sides of the sharpness inequality, contract ``L >= R``.

    ``L = (1 - P) / P`` with ``P = (q^n; 1/q)_k = prod_{i<k}(1 - q^(n-i))``,
    and ``R = ((q^(1-k) - q)/(1-q)) * q^n``, which equals the geometric sum
    ``sum_{i<k} q^(n-i)`` exactly.
    """
    check_q(q)
    if not 1 <= k <= n:
        raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
    prod = q_pochhammer(q**n, 1 / q, k)
    lhs = (1 - prod) / prod
    rhs = (q ** (1 - k) - q) / (1 - q) * q**n
    return lhs, rhs


#: The largest ``n_end`` of a rate sweep.  The grid, the factor list of a
#: distance and the powers ``b^n`` grow with n, and so may ``k <= n``: the
#: distance at ``n = k = 1000``, ``n1 = 0``, ``q = 2/3`` takes about 9 s and
#: 40 MB as a fresh process.
_MAX_N = 1000


class RateSweepConfig(_Record):
    """Grid description for a rate sweep: one source level ``n1`` for each n
    in ``n_start..n_end``, with ``n_end`` at most 1000.

    ``n1_rule`` picks it: ``"equal"`` takes n itself, ``"half"`` takes
    ``n // 2``, and an int level in ``0..n_start`` is taken for every n.
    """

    q: Fraction
    k: int
    n_start: int
    n_end: int
    n1_rule: str | int = "equal"

    def __post_init__(self) -> None:
        check_q(self.q)
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.n_start > self.n_end:
            raise ValueError(f"empty n range {self.n_start}..{self.n_end}")
        if self.n_end > _MAX_N:
            raise ValueError(f"n must be at most {_MAX_N}, got {self.n_end}")
        if self.n_start < self.k:
            raise ValueError(f"n must be at least k = {self.k}, got {self.n_start}")
        rule = self.n1_rule
        if type(rule) is int:  # not a bool
            if not 0 <= rule <= self.n_start:
                raise ValueError(f"n1 level must lie in 0..{self.n_start}, got {rule}")
        elif rule not in ("equal", "half"):
            raise ValueError(
                f"unknown n1 rule {rule!r}; expected 'equal', 'half' or a level in 0..{self.n_start}"
            )

    def grid(self) -> list[tuple[int, int]]:
        """The points ``(n, n1)`` in increasing n."""
        rule = self.n1_rule
        return [
            (n, rule if type(rule) is int else n if rule == "equal" else n // 2)
            for n in range(self.n_start, self.n_end + 1)
        ]


def verify_rate(cfg: RateSweepConfig) -> list[DistanceReport]:
    """Compute a report per grid point and assert both bounds on each.

    Reports come back in grid order, increasing n.  The first bound failure
    in that order raises :class:`RateViolationError`.
    """
    upper_c = upper_constant(cfg.k, cfg.q)
    lower_c = lower_constant(cfg.k, cfg.q) if cfg.k >= 1 else None
    reports = []
    for n, n1 in cfg.grid():
        q_n = cfg.q**n
        reports.append(DistanceReport(
            n=n, k=cfg.k, n1=n1, q=cfg.q,
            distance=extreme_vs_bernoulli_distance(n, n1, cfg.k, cfg.q),
            upper=upper_c * q_n,
            lower=lower_c * q_n if n1 >= cfg.k >= 1 else None,
        ))
    for report in reports:
        if not report.bounds_ok:
            raise RateViolationError(report, reports)
    return reports


def fit_log_slope(reports: Sequence[DistanceReport]) -> float:
    """Least-squares slope of ``ln(distance)`` against ``n``.

    Zero-distance reports are dropped.  Requires at least 3 surviving points
    over at least 3 distinct n, all sharing one k and one q; for a genuinely
    geometric decay the slope is ``ln q``.
    """
    usable = [r for r in reports if r.distance > 0]
    if len(usable) < 3:
        raise ValueError(f"need at least 3 reports with positive distance, got {len(usable)}")
    if len({r.k for r in usable}) != 1 or len({r.q for r in usable}) != 1:
        raise ValueError("slope fit requires reports sharing one k and one q")
    xs = [float(r.n) for r in usable]
    ys = [math.log(r.distance.numerator) - math.log(r.distance.denominator) for r in usable]
    if len(set(xs)) < 3:
        raise ValueError("slope fit requires at least 3 distinct n values")
    x_mean = sum(xs) / len(xs)
    y_mean = sum(ys) / len(ys)
    sxx = sum((x - x_mean) ** 2 for x in xs)
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    return sxy / sxx
