"""Command-line surface: compute, verify, sweep, and export.

Exit codes are stable across subcommands: 0 for success, 1 for a failed
mathematical check (a bound or invariant that should have held), 2 for usage
or input errors, an unwritable stdout, stderr or ``--out`` path included.  q is
read in the fraction grammar of measure files, so ``1/2`` is accepted and
``0.5`` is not.  All arithmetic is exact; floats are only rounded display
copies: the CSV columns of ``sweep``, the bracketed values of ``distance`` and
the ``*_float`` fields of ``decompose``, with a value past the float range
shown as an infinity.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys
from collections.abc import Sequence
from fractions import Fraction

from . import bounds, definetti, measures
from .qcore import check_q, q_binomial

CSV_HEADER = "n,k,n1,q,distance,upper,lower,dist_over_qn"

_RANGE_RE = re.compile(r"([0-9]+)(?:\.\.([0-9]+))?")


class _UsageError(Exception):
    pass


def _parse_q(text: str) -> Fraction:
    if not measures._FRACTION_RE.fullmatch(text):
        raise _UsageError(f"cannot parse q {text!r}; expected a fraction like 1/2")
    try:
        return check_q(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(str(exc)) from exc


def _parse_q_list(text: str) -> list[Fraction]:
    return [_parse_q(part.strip()) for part in text.split(",") if part.strip()]


def _parse_n_range(text: str) -> tuple[int, int]:
    match = _RANGE_RE.fullmatch(text)
    if not match:
        raise _UsageError(f"cannot parse n range {text!r}; expected START..END or a single value")
    start = int(match.group(1))
    end = int(match.group(2)) if match.group(2) is not None else start
    return start, end


def _parse_n1_rule(text: str) -> tuple[str, int | None]:
    if text in ("half", "equal"):
        return text, None
    if text.startswith("fixed:"):
        tail = text[len("fixed:"):]
        if not (tail.isascii() and tail.isdigit()):
            raise _UsageError(f"fixed n1 rule needs an integer, got {text!r}")
        return "fixed", int(tail)
    raise _UsageError(f"unknown n1 rule {text!r}; expected half, equal, or fixed:<v>")


def _emit(text: str, path: str | None = None, stream: str = "stdout") -> None:
    """Write ``text`` to the ``--out`` path, or else to the standard stream
    named ``stream`` and flush it; an unwritable or closed destination is an
    input error (exit 2)."""
    out = getattr(sys, stream)
    try:
        if path:
            with open(path, "w") as fh:
                fh.write(text)
        elif out is None:  # the descriptor was closed when the interpreter started
            raise _UsageError(f"cannot write {stream}: it is closed")
        else:
            out.write(text)
            out.flush()
    except OSError as exc:
        if not path:
            _discard(out)
        raise _UsageError(f"cannot write {path or stream}: {exc.strerror or exc}") from exc


def _discard(stream) -> None:
    """Point a standard stream's descriptor at the null device.  The unwritten
    text stays buffered, and the interpreter's flush at exit would fail on it
    again and turn exit 2 into exit 120."""
    try:
        fd = stream.fileno()
    except (OSError, ValueError):
        return  # a stream with no descriptor has no exit flush to fail
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


@contextlib.contextmanager
def _exact_digits():
    """Lift the interpreter's int-to-str digit limit while exact output is
    formatted.  Readers keep the limit, so an over-long input entry stays a
    malformed input."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # no limit before 3.10.7
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _float(x) -> float:
    """``x`` rounded to a float for display; an infinity past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _fmt_float(x) -> str:
    return f"{_float(x):.17g}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_qbinom(args: argparse.Namespace) -> int:
    q = _parse_q(args.q)
    if not 0 <= args.k <= args.n:
        raise _UsageError(f"need 0 <= k <= n, got n={args.n}, k={args.k}")
    with _exact_digits():
        _emit(f"{q_binomial(args.n, args.k, q)}\n")
    return 0


def cmd_distance(args: argparse.Namespace) -> int:
    q = _parse_q(args.q)
    if not (0 <= args.k <= args.n and 0 <= args.n1 <= args.n):
        raise _UsageError(f"need 0 <= k <= n and 0 <= n1 <= n, got n={args.n}, n1={args.n1}, k={args.k}")
    cfg = bounds.RateSweepConfig(
        q=q, k=args.k, n_start=args.n, n_end=args.n, n1_rule="fixed", n1_fixed=args.n1
    )
    try:
        (report,) = bounds.verify_rate(cfg)
    except bounds.RateViolationError as exc:
        report = exc.report
    with _exact_digits():
        if report.lower is None:
            lower = "n/a (requires n1 >= k >= 1)"
        else:
            lower = f"{report.lower} ({_fmt_float(report.lower)})"
        _emit(
            f"n={args.n} n1={args.n1} k={args.k} q={q}\n"
            f"distance = {report.distance} ({_fmt_float(report.distance)})\n"
            f"upper = {report.upper} ({_fmt_float(report.upper)})\n"
            f"lower = {lower}\n"
            f"{'PASS' if report.bounds_ok else 'FAIL'}\n"
        )
    return 0 if report.bounds_ok else 1


def _report_row(r: definetti.DistanceReport) -> str:
    lower = "" if r.lower is None else _fmt_float(r.lower)
    return ",".join(
        [
            str(r.n),
            str(r.k),
            str(r.n1),
            str(r.q),
            _fmt_float(r.distance),
            _fmt_float(r.upper),
            lower,
            _fmt_float(r.dist_over_qn),
        ]
    )


def _report_record(r: definetti.DistanceReport) -> dict:
    return {
        "n": r.n,
        "k": r.k,
        "n1": r.n1,
        "q": str(r.q),
        "distance": str(r.distance),
        "upper": str(r.upper),
        "lower": None if r.lower is None else str(r.lower),
        "dist_over_qn": str(r.dist_over_qn),
    }


def _render_sweep(reports, fmt: str, violation: definetti.DistanceReport | None) -> str:
    if fmt == "json":
        import json
        return json.dumps([_report_record(r) for r in reports], indent=2) + "\n"
    lines = [CSV_HEADER]
    lines += [_report_row(r) for r in reports]
    if violation is not None:
        lines.append(
            f"VIOLATION,n={violation.n},n1={violation.n1},k={violation.k},"
            f"distance={violation.distance}"
        )
    text = "\n".join(lines) + "\n"
    if fmt == "table":
        rows = [line.split(",") for line in text.strip().split("\n")]
        widths = [max(len(row[i]) for row in rows if i < len(row)) for i in range(len(rows[0]))]
        text = "\n".join(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows
        ) + "\n"
    return text


def cmd_sweep(args: argparse.Namespace) -> int:
    q = _parse_q(args.q)
    n_start, n_end = _parse_n_range(args.n)
    rule, fixed = _parse_n1_rule(args.n1)
    try:
        cfg = bounds.RateSweepConfig(
            q=q, k=args.k, n_start=n_start, n_end=n_end, n1_rule=rule, n1_fixed=fixed
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc

    violation = None
    try:
        reports = bounds.verify_rate(cfg)
    except bounds.RateViolationError as exc:
        reports = exc.reports
        violation = exc.report

    with _exact_digits():
        _emit(_render_sweep(reports, args.format, violation), args.out)

    if args.fit_slope:
        try:
            slope = bounds.fit_log_slope(reports)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
        _emit(f"fit_log_slope = {_fmt_float(slope)}\n", stream="stderr")
    return 1 if violation is not None else 0


def cmd_decompose(args: argparse.Namespace) -> int:
    import json
    try:
        with open(args.measure) as fh:
            m = measures.QExchMeasure.from_json(fh.read())
    except OSError as exc:
        raise _UsageError(f"cannot read measure file: {exc}") from exc
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    if not 0 <= args.k <= m.n:
        raise _UsageError(f"need 0 <= k <= n = {m.n}, got k={args.k}")

    mu = definetti.decompose(m)
    error = definetti.approx_error(m, args.k)
    cap = bounds.upper_constant(args.k, m.q) * m.q**m.n
    passed = error <= cap
    with _exact_digits():
        record = {
            "mixing": mu.to_json_dict(),
            "k": args.k,
            "approx_error": str(error),
            "approx_error_float": _float(error),
            "upper_bound": str(cap),
            "upper_bound_float": _float(cap),
            "pass": passed,
        }
        _emit(json.dumps(record, indent=2) + "\n")
        if args.out:
            _emit(mu.to_json() + "\n", args.out)
    return 0 if passed else 1


def cmd_random_measure(args: argparse.Namespace) -> int:
    q = _parse_q(args.q)
    if args.n < 0:
        raise _UsageError(f"n must be >= 0, got {args.n}")
    m = measures.random_q_exch(args.n, q, args.seed)
    with _exact_digits():
        _emit(m.to_json() + "\n", args.out)
    return 0


def cmd_verify_all(args: argparse.Namespace) -> int:
    from . import verify  # the suites are not loaded on the sweep's start-up path
    qs = _parse_q_list(args.q)
    # the suites tabulate 2^n words, about doubling per n: 12 takes a minute
    if not 0 <= args.max_n <= 12:
        raise _UsageError(f"max-n must be in 0..12, got {args.max_n}")
    if not qs:
        raise _UsageError("need at least one q value")
    results = verify.run_all(args.max_n, qs)
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "OK" if r.ok else "FAIL"
        lines.append(f"{r.name.ljust(width)}  {r.checks:7d} checks  {status}")
        if not r.ok:
            lines.append(f"  first counterexample: {r.failures[0]}")
    total = sum(r.checks for r in results)
    ok = all(r.ok for r in results)
    lines.append(f"{'ALL OK' if ok else 'FAILED'} ({total} checks)")
    _emit("\n".join(lines) + "\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser that writes its help, usage and error text through
    ``_emit``, so an unwritable stream is exit 2, not a failed flush at exit.
    Subcommand parsers inherit the class."""

    def _print_message(self, message, file=None):
        if message:
            _emit(message, stream="stderr" if file is sys.stderr else "stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qexchange",
        description="Exact q-exchangeable measures: distances, mixtures, and certified q^n rate bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qbinom", help="print a Gaussian binomial coefficient")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--q", required=True, help="deformation parameter as a fraction, e.g. 1/2")
    p.set_defaults(func=cmd_qbinom)

    p = sub.add_parser("distance", help="extreme-vs-Bernoulli projection distance with both bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", required=True)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("sweep", help="rate sweep over an n range; CSV schema " + CSV_HEADER)
    p.add_argument("--q", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", required=True, help="inclusive range START..END (or a single value)")
    p.add_argument("--n1", default="equal", help="half | equal | fixed:<v>")
    p.add_argument("--format", choices=("csv", "json", "table"), default="csv")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--fit-slope", action="store_true", help="print ln-distance slope to stderr")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("decompose", help="decompose a measure file and report its mixture error")
    p.add_argument("measure", help="path to a measure JSON file")
    p.add_argument("--k", type=int, required=True, help="projection width for the error report")
    p.add_argument("--out", help="also write the mixing measure JSON to this path")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("random-measure", help="write a seeded random q-exchangeable measure as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write to this path instead of stdout")
    p.set_defaults(func=cmd_random_measure)

    p = sub.add_parser("verify-all", help="run every invariant suite and report per-suite counts")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--q", default="1/2,1/3,2/3", help="comma-separated fractions")
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        with contextlib.suppress(_UsageError):  # a full stderr was discarded
            _emit(f"error: {exc}\n", stream="stderr")
        return 2
