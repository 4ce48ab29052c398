"""Cross-module invariant suites behind the ``verify-all`` command.

Each suite re-derives one family of identities or inequalities with an
independent method (enumeration, dense tabulation, brute-force pushforward)
and compares against the library's fast path, stopping at the first
counterexample.  Library calls go through module attributes on purpose: a
corrupted build, including one corrupted deliberately in tests, must flip the
suites to failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from . import bounds, definetti, measures, projection, qcore


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def require(self, condition: bool, describe: Callable[[], str]) -> bool:
        """Count one check; record the counterexample on failure."""
        self.checks += 1
        if not condition and not self.failures:
            self.failures.append(describe())
        return condition


def suite_qbinom(max_n: int, qs: Sequence[Fraction]) -> SuiteResult:
    """Level sums of both word statistics against the Gaussian binomial."""
    result = SuiteResult("qbinom-identity")
    for q in qs:
        for n in range(max_n + 1):
            for k in range(n + 1):
                inv_sum = coinv_sum = Fraction(0)
                for w in qcore.enumerate_level(n, k):
                    inv = qcore.inversions(w)
                    coinv = qcore.coinversions(w)
                    if not result.require(
                        inv + coinv == k * (n - k),
                        lambda: f"inv+coinv != ones*zeros at word {w}",
                    ):
                        return result
                    inv_sum += q**inv
                    coinv_sum += q**coinv
                qb = qcore.q_binomial(n, k, q)
                ok = result.require(
                    inv_sum == qb and coinv_sum == qb,
                    lambda: f"statistic sum mismatch at n={n}, k={k}, q={q}: {inv_sum}, {coinv_sum} vs {qb}",
                )
                ok = ok and result.require(
                    qb == qcore.q_binomial(n, n - k, q),
                    lambda: f"symmetry [n,k] != [n,n-k] at n={n}, k={k}, q={q}",
                )
                factorial_ratio = qcore.q_factorial(n, q) / (
                    qcore.q_factorial(k, q) * qcore.q_factorial(n - k, q)
                )
                ok = ok and result.require(
                    qb == factorial_ratio,
                    lambda: f"recurrence vs factorial ratio at n={n}, k={k}, q={q}",
                )
                if not ok:
                    return result
    return result


def _measure_inventory(n: int, q: Fraction) -> list[measures.QExchMeasure]:
    inventory = [measures.extreme_measure(n, k, q) for k in range(n + 1)]
    inventory += [measures.q_bernoulli(n, e, q) for e in range(n + 1)]
    inventory += [measures.random_q_exch(n, q, seed) for seed in range(3)]
    mu = definetti.decompose(measures.random_q_exch(n, q, 3))
    inventory.append(definetti.mixture(mu, n))
    return inventory


def suite_exchangeability(max_n: int, qs: Sequence[Fraction]) -> SuiteResult:
    """Adjacent-swap rule on dense tables of every constructed measure."""
    result = SuiteResult("exchangeability")
    for q in qs:
        for n in range(max_n + 1):
            for m in _measure_inventory(n, q):
                for k in sorted({0, 1, n // 2, n - 1, n} & set(range(n + 1))):
                    dense = measures.to_dense(projection.project(m, k))
                    ok, witness = measures.is_q_exchangeable(dense, q)
                    if not result.require(
                        ok,
                        lambda: f"swap rule broken at n={n}, k={k}, q={q}, witness={witness}",
                    ):
                        return result
    return result


def suite_projection(max_n: int, qs: Sequence[Fraction]) -> SuiteResult:
    """Closed-form projections against the brute-force suffix sum."""
    result = SuiteResult("projection-oracle")
    for q in qs:
        for n in range(max_n + 1):
            for n1 in range(n + 1):
                pairs = [
                    (measures.extreme_measure(n, n1, q), projection.project_extreme_closed_form, True),
                    (measures.q_bernoulli(n, n1, q), projection.project_bernoulli_closed_form, False),
                ]
                for m, closed_form, takes_n in pairs:
                    dense = list(measures.to_dense(m).weights)
                    dim = n
                    while True:
                        compact = projection.project(m, dim)
                        for k1 in range(dim + 1):
                            s = qcore.block_word(dim, k1)
                            want = closed_form(n, n1, dim, k1, q) if takes_n else closed_form(n1, dim, k1, q)
                            got_dense = dense[s.packed]
                            got_compact = measures.evaluate(compact, s)
                            if not result.require(
                                want == got_dense == got_compact,
                                lambda: (
                                    f"projection mismatch at n={n}, n1={n1}, k={dim}, k1={k1}, q={q}: "
                                    f"closed={want}, dense={got_dense}, compact={got_compact}"
                                ),
                            ):
                                return result
                        if dim == 0:
                            break
                        dim -= 1
                        dense = [dense[p] + dense[p | (1 << dim)] for p in range(1 << dim)]
    return result


def suite_upper_bound(max_n: int, qs: Sequence[Fraction], max_k: int = 4, seeds: int = 3) -> SuiteResult:
    """Projection error dominated by ``upper_constant * q^n`` everywhere."""
    result = SuiteResult("upper-bound")
    for q in qs:
        for n in range(max_n + 1):
            for k in range(min(n, max_k) + 1):
                cap = bounds.upper_constant(k, q) * q**n
                for n1 in range(n + 1):
                    d = definetti.extreme_vs_bernoulli_distance(n, n1, k, q)
                    if not result.require(
                        d <= cap,
                        lambda: f"upper bound violated at n={n}, n1={n1}, k={k}, q={q}: {d} > {cap}",
                    ):
                        return result
                for seed in range(seeds):
                    m = measures.random_q_exch(n, q, seed)
                    err = definetti.approx_error(m, k)
                    if not result.require(
                        err <= cap,
                        lambda: f"mixture error above bound at n={n}, k={k}, q={q}, seed={seed}: {err} > {cap}",
                    ):
                        return result
    return result


def suite_sharpness(max_n: int, qs: Sequence[Fraction], max_k: int = 4) -> SuiteResult:
    """Lower bound for deep levels plus the technical inequality behind it."""
    result = SuiteResult("sharpness-lower")
    for q in qs:
        for n in range(1, max_n + 1):
            for k in range(1, min(n, max_k) + 1):
                floor = bounds.lower_constant(k, q) * q**n
                for n1 in range(k, n + 1):
                    d = definetti.extreme_vs_bernoulli_distance(n, n1, k, q)
                    if not result.require(
                        d >= floor,
                        lambda: f"lower bound violated at n={n}, n1={n1}, k={k}, q={q}: {d} < {floor}",
                    ):
                        return result
                lhs, rhs = bounds.tech_lemma_lhs_rhs(n, k, q)
                if not result.require(
                    lhs >= rhs,
                    lambda: f"technical inequality failed at n={n}, k={k}, q={q}: {lhs} < {rhs}",
                ):
                    return result
    return result


def suite_decomposition(max_n: int, qs: Sequence[Fraction], seeds: int = 5) -> SuiteResult:
    """Extreme-measure reconstruction and mixture identities."""
    result = SuiteResult("decomposition")
    for q in qs:
        for n in range(max_n + 1):
            extremes = [measures.extreme_measure(n, i, q) for i in range(n + 1)]
            for seed in range(seeds):
                m = measures.random_q_exch(n, q, seed)
                mu = definetti.decompose(m)
                rebuilt = tuple(
                    sum(a * e.base[j] for a, e in zip(mu.alpha, extremes))
                    for j in range(n + 1)
                )
                if not result.require(
                    rebuilt == m.base,
                    lambda: f"reconstruction mismatch at n={n}, q={q}, seed={seed}",
                ):
                    return result
            for n1 in range(n + 1):
                mu = definetti.decompose(extremes[n1])
                point = tuple(int(i == n1) for i in range(n + 1))
                ok = result.require(
                    mu.alpha == point,
                    lambda: f"extreme decomposition not a point mass at n={n}, n1={n1}, q={q}",
                )
                delta = definetti.MixingMeasure(n, q, point)
                ok = ok and result.require(
                    definetti.mixture(delta, n) == measures.q_bernoulli(n, n1, q),
                    lambda: f"delta mixture mismatch at n={n}, n1={n1}, q={q}",
                )
                if not ok:
                    return result
    return result


def run_all(max_n: int, qs: Sequence[Fraction]) -> list[SuiteResult]:
    return [
        suite_qbinom(max_n, qs),
        suite_exchangeability(max_n, qs),
        suite_projection(max_n, qs),
        suite_upper_bound(max_n, qs),
        suite_sharpness(max_n, qs),
        suite_decomposition(max_n, qs),
    ]
