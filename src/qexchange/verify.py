"""Cross-module invariant suites behind the ``verify-all`` command.

Each suite re-derives one family of identities or inequalities with an
independent method (enumeration, dense tabulation, brute-force pushforward)
and compares against the library's fast path.  A suite's checks are a
generator of ``(condition, describe)`` pairs, which ``_first_failure`` counts
in order, stopping at the first counterexample.  Library calls go through
module attributes on purpose: a corrupted build, including one corrupted
deliberately in tests, must flip the suites to failure.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction

from . import bounds, definetti, measures, projection, qcore

#: Largest projection size k of the upper-bound and sharpness suites.
MAX_K = 4
#: Random measures per (n, q) of the upper-bound and decomposition suites.
UPPER_BOUND_SEEDS = 3
DECOMPOSITION_SEEDS = 5

Checks = Iterator[tuple[bool, Callable[[], str]]]


class SuiteResult(qcore._Record):
    """The checks a suite ran, up to and including its first failing one, and
    that check's description (``None`` if every check held)."""

    name: str
    checks: int
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def _first_failure(name: str, checks: Checks) -> SuiteResult:
    """Count the checks in order and stop at the first failing one, whose
    ``describe`` runs before the generator resumes, so that it reads the loop
    variables of its own check."""
    count = 0
    for count, (condition, describe) in enumerate(checks, 1):
        if not condition:
            return SuiteResult(name, count, describe())
    return SuiteResult(name, count)


def suite_qbinom(max_n: int, qs: Sequence[Fraction]) -> SuiteResult:
    """Level sums of both word statistics against the Gaussian binomial."""
    def checks() -> Checks:
        for q in qs:
            for n in range(max_n + 1):
                for k in range(n + 1):
                    inv_sum = coinv_sum = Fraction(0)
                    for w in qcore.enumerate_level(n, k):
                        inv = qcore.inversions(w)
                        coinv = qcore.coinversions(w)
                        yield inv + coinv == k * (n - k), lambda: f"inv+coinv != ones*zeros at word {w}"
                        inv_sum += q**inv
                        coinv_sum += q**coinv
                    qb = qcore.q_binomial(n, k, q)
                    where = f"n={n}, k={k}, q={q}"
                    yield inv_sum == qb and coinv_sum == qb, lambda: (
                        f"statistic sum mismatch at {where}: {inv_sum}, {coinv_sum} vs {qb}"
                    )
                    yield qb == qcore.q_binomial(n, n - k, q), lambda: f"symmetry [n,k] != [n,n-k] at {where}"
                    factorial_ratio = qcore.q_factorial(n, q) / (
                        qcore.q_factorial(k, q) * qcore.q_factorial(n - k, q)
                    )
                    yield qb == factorial_ratio, lambda: f"recurrence vs factorial ratio at {where}"
    return _first_failure("qbinom-identity", checks())


def _sum_out_last(weights: list[Fraction]) -> list[Fraction]:
    """A dense table with its last coordinate, a packed word's top bit, summed out."""
    half = len(weights) // 2
    return [weights[p] + weights[p + half] for p in range(half)]


def _measure_inventory(n: int, q: Fraction) -> list[measures.QExchMeasure]:
    inventory = [measures.extreme_measure(n, k, q) for k in range(n + 1)]
    inventory += [measures.q_bernoulli(n, e, q) for e in range(n + 1)]
    inventory += [measures.random_q_exch(n, q, seed) for seed in range(3)]
    mu = definetti.decompose(measures.random_q_exch(n, q, 3))
    inventory.append(definetti.mixture(mu, n))
    return inventory


def suite_exchangeability(max_n: int, qs: Sequence[Fraction]) -> SuiteResult:
    """The k-marginals of each constructed measure's dense table (``to_dense``)
    against the tables of its projections, q-exchangeable by their form, and at
    k = n, where ``project`` returns the measure, against the swap rule."""
    def checks() -> Checks:
        for q in qs:
            for n in range(max_n + 1):
                for m in _measure_inventory(n, q):
                    dense = measures.to_dense(m)
                    marginal = list(dense.weights)
                    swap = measures.is_q_exchangeable(dense, q)[1]  # the first broken (word, position)
                    for k in sorted({0, 1, n // 2, n - 1, n} & set(range(n + 1)), reverse=True):
                        while len(marginal) > 1 << k:
                            marginal = _sum_out_last(marginal)
                        projected = list(measures.to_dense(projection.project(m, k)).weights)
                        yield marginal == projected and not (k == n and swap), lambda: next((
                            f"marginal mismatch at n={n}, k={k}, q={q}, packed={p}: dense={x}, compact={y}"
                            for p, (x, y) in enumerate(zip(marginal, projected)) if x != y
                        ), swap and f"swap rule broken at n={n}, q={q}: word {swap[0]}, position {swap[1]}")
    return _first_failure("exchangeability", checks())


def suite_projection(max_n: int, qs: Sequence[Fraction]) -> SuiteResult:
    """Closed-form projections against the brute-force suffix sum."""
    def checks() -> Checks:
        for q in qs:
            for n in range(max_n + 1):
                for n1 in range(n + 1):
                    pairs = [  # (measure, its closed form, the arguments before k and k1)
                        (measures.extreme_measure(n, n1, q), projection.project_extreme_closed_form, (n, n1)),
                        (measures.q_bernoulli(n, n1, q), projection.project_bernoulli_closed_form, (n1,)),
                    ]
                    for m, closed_form, lead in pairs:
                        dense = list(measures.to_dense(m).weights)
                        for dim in range(n, -1, -1):
                            if dim < n:
                                dense = _sum_out_last(dense)
                            compact = projection.project(m, dim)
                            for k1 in range(dim + 1):
                                s = qcore.block_word(dim, k1)
                                want = closed_form(*lead, dim, k1, q)
                                got_dense = dense[s.packed]
                                got_compact = measures.evaluate(compact, s)
                                yield want == got_dense == got_compact, lambda: (
                                    f"projection mismatch at n={n}, n1={n1}, k={dim}, k1={k1}, q={q}: "
                                    f"closed={want}, dense={got_dense}, compact={got_compact}"
                                )
    return _first_failure("projection-oracle", checks())


def suite_upper_bound(max_n: int, qs: Sequence[Fraction]) -> SuiteResult:
    """Each extreme's error ``D(n, n1, k)`` dominated by
    ``upper_constant * q^n``, and a mixture's error by the alpha-mix of those
    ``D``: the triangle inequality over its convex decomposition."""
    def checks() -> Checks:
        for q in qs:
            for n in range(max_n + 1):
                for k in range(min(n, MAX_K) + 1):
                    cap = bounds.upper_constant(k, q) * q**n
                    ds = [definetti.extreme_vs_bernoulli_distance(n, n1, k, q) for n1 in range(n + 1)]
                    for n1, d in enumerate(ds):
                        yield d <= cap, lambda: (
                            f"upper bound violated at n={n}, n1={n1}, k={k}, q={q}: {d} > {cap}"
                        )
                    for seed in range(UPPER_BOUND_SEEDS):
                        m = measures.random_q_exch(n, q, seed)
                        err = definetti.approx_error(m, k)
                        bound = sum(a * d for a, d in zip(definetti.decompose(m).alpha, ds))
                        yield err <= bound, lambda: (
                            f"mixture error above bound at n={n}, k={k}, q={q}, seed={seed}: {err} > {bound}"
                        )
    return _first_failure("upper-bound", checks())


def suite_sharpness(max_n: int, qs: Sequence[Fraction]) -> SuiteResult:
    """Lower bound for deep levels plus the technical inequality behind it."""
    def checks() -> Checks:
        for q in qs:
            for n in range(1, max_n + 1):
                for k in range(1, min(n, MAX_K) + 1):
                    floor = bounds.lower_constant(k, q) * q**n
                    for n1 in range(k, n + 1):
                        d = definetti.extreme_vs_bernoulli_distance(n, n1, k, q)
                        yield d >= floor, lambda: (
                            f"lower bound violated at n={n}, n1={n1}, k={k}, q={q}: {d} < {floor}"
                        )
                    lhs, rhs = bounds.tech_lemma_lhs_rhs(n, k, q)
                    yield lhs >= rhs, lambda: (
                        f"technical inequality failed at n={n}, k={k}, q={q}: {lhs} < {rhs}"
                    )
    return _first_failure("sharpness-lower", checks())


def suite_decomposition(max_n: int, qs: Sequence[Fraction]) -> SuiteResult:
    """Extreme-measure reconstruction and mixture identities."""
    def checks() -> Checks:
        for q in qs:
            for n in range(max_n + 1):
                extremes = [measures.extreme_measure(n, i, q) for i in range(n + 1)]
                for seed in range(DECOMPOSITION_SEEDS):
                    m = measures.random_q_exch(n, q, seed)
                    mu = definetti.decompose(m)
                    rebuilt = tuple(
                        sum(a * e.base[j] for a, e in zip(mu.alpha, extremes)) for j in range(n + 1)
                    )
                    yield rebuilt == m.base, lambda: f"reconstruction mismatch at n={n}, q={q}, seed={seed}"
                for n1 in range(n + 1):
                    point = tuple(int(i == n1) for i in range(n + 1))
                    yield definetti.decompose(extremes[n1]).alpha == point, lambda: (
                        f"extreme decomposition not a point mass at n={n}, n1={n1}, q={q}"
                    )
                    delta = measures.MixingMeasure(n, q, point)
                    yield definetti.mixture(delta, n) == measures.q_bernoulli(n, n1, q), lambda: (
                        f"delta mixture mismatch at n={n}, n1={n1}, q={q}"
                    )
    return _first_failure("decomposition", checks())


def run_all(max_n: int, qs: Sequence[Fraction]) -> list[SuiteResult]:
    return [
        suite_qbinom(max_n, qs),
        suite_exchangeability(max_n, qs),
        suite_projection(max_n, qs),
        suite_upper_bound(max_n, qs),
        suite_sharpness(max_n, qs),
        suite_decomposition(max_n, qs),
    ]
