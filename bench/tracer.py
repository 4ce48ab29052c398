"""Spans around calls into the public functions of the qexchange modules.

The tracer lives in the benchmark, not in the library: it replaces every
public function of each traced module, in every module namespace that holds
it, with a wrapper that times the call.  Modules that did ``from .qcore import
q_binomial`` hold their own reference, so each namespace is patched.  Spans
nest through a stack, which gives each function its self time (its duration
minus the time covered by the spans it caused).  Spans are aggregated per
function in memory, never written per call, so a traced run of many
thousands of calls stays small.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from fractions import Fraction
from types import ModuleType

#: Library modules whose public functions are traced, in layer order.
TRACED_MODULES = ("qcore", "measures", "projection", "definetti", "bounds", "verify", "cli")


def fraction_bits(value) -> int:
    """Largest numerator or denominator bit length of an exact scalar."""
    if type(value) is Fraction:
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return 0


class Tracer:
    """Aggregated spans per ``module.function`` name.

    ``stats[name]`` is ``[calls, inclusive_s, self_s]``.  Calls to
    ``qcore.q_binomial`` are also counted per argument triple in
    ``qbinom_calls`` (insertion order is first-call order), and the largest
    bit length of any exact scalar returned by a traced call is kept in
    ``result_bits_max``.  For the names in ``keep``, each call's
    ``(args, result)`` is appended to ``kept[name]``.
    """

    def __init__(self, keep=()):
        self.stats: dict[str, list] = {}
        self.qbinom_calls: dict[tuple, int] = {}
        self.result_bits_max = 0
        self.kept: dict[str, list] = {name: [] for name in keep}
        self._stack: list[list[float]] = []
        self._patches: list[tuple[ModuleType, str, object]] = []

    def _wrap(self, name: str, fn):
        record = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        log_args = self.qbinom_calls if name == "qcore.q_binomial" else None
        kept = self.kept.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if log_args is not None:
                log_args[args] = log_args.get(args, 0) + 1
            bits = fraction_bits(result)
            if bits > tracer.result_bits_max:
                tracer.result_bits_max = bits
            if kept is not None:
                kept.append((args, result))
            return result

        span.__wrapped_original__ = fn
        return span

    def install(self, package: ModuleType, modules=TRACED_MODULES) -> None:
        """Wrap the public functions of the named modules of ``package``."""
        loaded = {m: importlib.import_module(f"{package.__name__}.{m}") for m in TRACED_MODULES}
        namespaces = [package, *loaded.values()]
        for module in (loaded[m] for m in modules):
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for ns_attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, ns_attr, fn))
                            setattr(ns, ns_attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patches):
            setattr(ns, attr, fn)
        self._patches.clear()

    def reset(self) -> None:
        """Zero the aggregates, keeping the installed wrappers."""
        for record in self.stats.values():
            record[:] = [0, 0.0, 0.0]
        self.qbinom_calls.clear()
        self.result_bits_max = 0
        for kept in self.kept.values():
            kept.clear()

    def inclusive(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def self_total(self) -> float:
        """Time covered by root spans; never more than the traced op's wall."""
        return sum(r[2] for r in self.stats.values())
