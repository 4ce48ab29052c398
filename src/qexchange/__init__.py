"""Exact q-exchangeable measures on binary words.

Construction and evaluation of q-exchangeable probability measures on
``{0,1}^n``, their extreme/mixture decomposition, closed-form leading
projections, total-variation distances, and certified verification that the
canonical q-Bernoulli mixture approximates every such measure at the optimal
rate ``q^n``.  All arithmetic is exact rational arithmetic on
``fractions.Fraction``; floats appear only where a result is rounded for
display.

``import qexchange`` loads no submodule: each public name imports its home
module on first use.
"""

import sys

__version__ = "0.1.0"

#: The public names, by home module.
_EXPORTS = {
    "qcore": (
        "Word", "block_word", "check_q", "coinversions", "enumerate_level", "inversions",
        "q_binomial", "q_binomial_numerator", "q_factorial", "q_int", "q_pochhammer", "swap_adjacent",
    ),
    "measures": (
        "MAX_DENSE_N", "DenseMeasure", "MeasureSampler", "MixingMeasure", "QExchMeasure", "evaluate",
        "extreme_measure", "is_q_exchangeable", "q_bernoulli", "random_q_exch", "to_dense",
    ),
    "projection": (
        "project", "project_bernoulli_closed_form", "project_extreme_closed_form", "tv_distance",
    ),
    "definetti": (
        "approx_error", "decompose", "extreme_vs_bernoulli_distance", "mixture",
    ),
    "bounds": (
        "DistanceReport", "RateSweepConfig", "RateViolationError", "fit_log_slope", "lower_constant",
        "tech_lemma_lhs_rhs", "upper_constant", "verify_rate",
    ),
}
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Read from the home module on every access and never stored here, so a
    # name patched in its home module (as a tracer does) is patched here too.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _HOME[name]
    if home not in sys.modules:
        __import__(home)
    return getattr(sys.modules[home], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
