"""Exact q-exchangeable measures on binary words.

Construction and evaluation of q-exchangeable probability measures on
``{0,1}^n``, their extreme/mixture decomposition, closed-form leading
projections, total-variation distances, and certified verification that the
canonical q-Bernoulli mixture approximates every such measure at the optimal
rate ``q^n``.  All arithmetic is exact rational arithmetic on
``fractions.Fraction``; floats appear only where a result is rounded for
display.
"""

from .qcore import (
    MAX_WORD_LENGTH,
    Word,
    block_word,
    check_q,
    coinversions,
    enumerate_level,
    inversions,
    q_binomial,
    q_binomial_numerator,
    q_factorial,
    q_int,
    q_pochhammer,
    swap_adjacent,
)
from .measures import (
    MAX_DENSE_N,
    DenseMeasure,
    MeasureSampler,
    QExchMeasure,
    evaluate,
    extreme_measure,
    is_q_exchangeable,
    q_bernoulli,
    random_q_exch,
    to_dense,
)
from .projection import (
    project,
    project_bernoulli_closed_form,
    project_extreme_closed_form,
    tv_distance,
)
from .definetti import (
    DistanceReport,
    MixingMeasure,
    approx_error,
    decompose,
    extreme_vs_bernoulli_distance,
    mixture,
)
from .bounds import (
    RateSweepConfig,
    RateViolationError,
    fit_log_slope,
    lower_constant,
    tech_lemma_lhs_rhs,
    upper_constant,
    verify_rate,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_DENSE_N",
    "MAX_WORD_LENGTH",
    "DenseMeasure",
    "DistanceReport",
    "MeasureSampler",
    "MixingMeasure",
    "QExchMeasure",
    "RateSweepConfig",
    "RateViolationError",
    "Word",
    "approx_error",
    "block_word",
    "check_q",
    "coinversions",
    "decompose",
    "enumerate_level",
    "evaluate",
    "extreme_measure",
    "extreme_vs_bernoulli_distance",
    "fit_log_slope",
    "inversions",
    "is_q_exchangeable",
    "lower_constant",
    "mixture",
    "project",
    "project_bernoulli_closed_form",
    "project_extreme_closed_form",
    "q_bernoulli",
    "q_binomial",
    "q_binomial_numerator",
    "q_factorial",
    "q_int",
    "q_pochhammer",
    "random_q_exch",
    "swap_adjacent",
    "tech_lemma_lhs_rhs",
    "to_dense",
    "tv_distance",
    "upper_constant",
    "verify_rate",
]
