"""Command-line surface: compute, verify, sweep, and export.

Exit codes are stable across subcommands: 0 for success, 1 for a failed
mathematical check (a bound or invariant that should have held), 2 for usage
or input errors, an unwritable stdout, stderr or ``--out`` path included.  q is
read in the fraction grammar of measure files, so ``1/2`` is accepted and
``0.5`` is not, and every integer argument in its integer form ``-?[0-9]+``,
so ``+3``, ``1_0`` and non-ASCII digits are not; both keep the files' digit
limit.  A line to stderr is clipped to 200 characters.  All arithmetic is
exact; floats are only rounded display copies: the CSV columns of ``sweep``,
the bracketed values of ``distance`` and the ``*_float`` fields of
``decompose``, with a value past the float range shown as an infinity.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from collections.abc import Sequence
from fractions import Fraction

from . import bounds, definetti, measures
from .qcore import check_q, q_binomial

CSV_HEADER = "n,k,n1,q,distance,upper,lower,dist_over_qn"
_COLUMNS = CSV_HEADER.split(",")  # the DistanceReport fields of a sweep row

#: The largest ``k (n - k)``, the power of ``b`` under ``[n, k]_q``, that
#: ``qbinom`` reads: at ``q = 2/3`` the prefix of row 2000 up to ``k = 1000``
#: takes about 15 s and 220 MB.
_MAX_QBINOM_EXPONENT = 10**6


class _UsageError(Exception):
    pass


def _read(text: str, what: str) -> Fraction:
    """A number in the fraction grammar of measure files, with their digit limit."""
    try:
        return measures._scalar_from_json(text)
    except ValueError as exc:
        raise _UsageError(f"cannot parse {what}: {exc}") from exc


def _int(what: str, lo: float = -math.inf, hi: float = math.inf):
    """The reader of the integer argument ``what``, also its argparse ``type``:
    the integer form ``-?[0-9]+`` of the files' fraction strings, in ASCII
    digits and with their digit limit, held to ``lo..hi``."""
    def read(text: str) -> int:
        try:  # the files' reader rejects None, so a fraction is no integer
            value = measures._scalar_from_json(None if "/" in text else text).numerator
        except ValueError as exc:
            too_long = str(exc) == measures._too_many_digits()
            reason = exc if too_long else f'expected an integer like "3", got {text!r}'
            raise _UsageError(f"cannot parse {what}: {reason}") from exc
        if not lo <= value <= hi:
            raise _UsageError(f"{what} must be in {lo}..{hi}, got {value}")
        return value
    return read


def _parse_q(text: str) -> Fraction:
    try:
        return check_q(_read(text, "q"))
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _parse_n_range(text: str) -> tuple[int, int]:
    """``START..END``, or a single value for both ends."""
    start, dots, end = text.partition("..")
    return _int("n range")(start), _int("n range")(end if dots else start)


def _parse_n1_rule(text: str) -> str | int:
    """``fixed:<v>`` as the level ``v``; any other text is a rule name, which
    ``RateSweepConfig`` checks."""
    return _int("fixed n1 rule")(text[len("fixed:"):]) if text.startswith("fixed:") else text


def _emit(text: str, path: str | None = None, stream: str = "stdout") -> None:
    """Write ``text`` to the ``--out`` path, or else to the standard stream
    named ``stream`` and flush it; an unwritable or closed destination is an
    input error (exit 2)."""
    out = getattr(sys, stream)
    if stream == "stderr":  # an error may echo a huge argument: clip, naming the length
        text = "\n".join(
            s if len(s) <= 200 else f"{s[:170]}... ({len(s)} characters)" for s in text.split("\n")
        )
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
    malformed input, and ``random-measure`` writes under it."""
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
    if args.k * (args.n - args.k) > _MAX_QBINOM_EXPONENT:
        raise _UsageError(f"need k(n - k) <= {_MAX_QBINOM_EXPONENT}, got n={args.n}, k={args.k}")
    with _exact_digits():
        _emit(f"{q_binomial(args.n, args.k, q)}\n")
    return 0


def _run_sweep(q: Fraction, k: int, n_start: int, n_end: int, n1_rule: str | int):
    """The sweep's reports and its violating report (``None`` if every bound
    held); a grid that ``RateSweepConfig`` rejects is an input error."""
    try:
        cfg = bounds.RateSweepConfig(q, k, n_start, n_end, n1_rule)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    try:
        return bounds.verify_rate(cfg), None
    except bounds.RateViolationError as exc:
        return exc.reports, exc.report


def cmd_distance(args: argparse.Namespace) -> int:
    q = _parse_q(args.q)
    (report,), _ = _run_sweep(q, args.k, args.n, args.n, args.n1)  # a one-point sweep
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


def _report_cells(r: bounds.DistanceReport) -> list[str]:
    values = [getattr(r, column) for column in _COLUMNS]
    exact = [str(v) for v in values[:4]]  # n, k, n1 and q; the rest are display floats
    return exact + ["" if v is None else _fmt_float(v) for v in values[4:]]


def _report_record(r: bounds.DistanceReport) -> dict:
    record = {column: getattr(r, column) for column in _COLUMNS}
    # ints stay ints and a missing lower is null; each Fraction is an exact string
    return {c: v if v is None or type(v) is int else str(v) for c, v in record.items()}


def _render_sweep(reports, fmt: str, violation: bounds.DistanceReport | None) -> str:
    if fmt == "json":
        import json
        return json.dumps([_report_record(r) for r in reports], indent=2) + "\n"
    rows = [_COLUMNS] + [_report_cells(r) for r in reports]
    if violation is not None:
        rows.append(["VIOLATION"] + [f"{c}={getattr(violation, c)}" for c in ("n", "n1", "k", "distance")])
    if fmt == "table":
        widths = [max(len(row[i]) for row in rows if i < len(row)) for i in range(len(_COLUMNS))]
        rows = [[cell.ljust(widths[i]) for i, cell in enumerate(row)] for row in rows]
    return "".join(("  " if fmt == "table" else ",").join(row) + "\n" for row in rows)


def cmd_sweep(args: argparse.Namespace) -> int:
    q = _parse_q(args.q)
    reports, violation = _run_sweep(q, args.k, *args.n, args.n1)
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
        with open(args.measure, encoding="utf-8") as fh:  # JSON is UTF-8, whatever the locale
            m = measures.QExchMeasure.from_json(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
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
    m = measures.random_q_exch(args.n, q, args.seed)
    try:  # under the limit ``decompose`` reads with, so the file can be read back
        text = m.to_json()
    except ValueError as exc:
        raise _UsageError(
            f"a measure at n={args.n} has integers of more than {sys.get_int_max_str_digits()} "
            "digits, the limit a measure file is read with; use a smaller n"
        ) from exc
    _emit(text + "\n", args.out)
    return 0


def cmd_verify_all(args: argparse.Namespace) -> int:
    from . import verify  # the suites are not loaded on the sweep's start-up path
    qs = [_parse_q(part.strip()) for part in args.q.split(",") if part.strip()]
    if not qs:
        raise _UsageError("need at least one q value")
    results = verify.run_all(args.max_n, qs)
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "OK" if r.ok else "FAIL"
        lines.append(f"{r.name.ljust(width)}  {r.checks:7d} checks  {status}")
        if not r.ok:
            lines.append(f"  first counterexample: {r.failure}")
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

    def _parse_optional(self, arg_string):
        # a dash and a digit start a value, as in the range -3..5, never an option
        if arg_string[:1] == "-" and arg_string[1:2].isdigit():
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qexchange",
        description="Exact q-exchangeable measures: distances, mixtures, and certified q^n rate bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qbinom", help="print a Gaussian binomial coefficient")
    p.add_argument("n", type=_int("n"))
    p.add_argument("k", type=_int("k"), help=f"0 <= k <= n, with k(n - k) at most {_MAX_QBINOM_EXPONENT}")
    p.add_argument("--q", required=True, help="deformation parameter as a fraction, e.g. 1/2")
    p.set_defaults(func=cmd_qbinom)

    p = sub.add_parser("distance", help="extreme-vs-Bernoulli projection distance with both bounds")
    p.add_argument("--n", type=_int("n"), required=True, help=f"at most {bounds._MAX_N}")
    p.add_argument("--n1", type=_int("n1"), required=True)
    p.add_argument("--k", type=_int("k"), required=True)
    p.add_argument("--q", required=True)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("sweep", help="rate sweep over an n range; CSV schema " + CSV_HEADER)
    p.add_argument("--q", required=True)
    p.add_argument("--k", type=_int("k"), required=True)
    p.add_argument(
        "--n", type=_parse_n_range, required=True,
        help=f"inclusive range START..END (or a single value), END at most {bounds._MAX_N}",
    )
    p.add_argument(
        "--n1", type=_parse_n1_rule, default=bounds.RateSweepConfig.n1_rule, help="half | equal | fixed:<v>"
    )
    p.add_argument("--format", choices=("csv", "json", "table"), default="csv")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--fit-slope", action="store_true", help="print ln-distance slope to stderr")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("decompose", help="decompose a measure file and report its mixture error")
    p.add_argument("measure", help="path to a measure JSON file")
    p.add_argument("--k", type=_int("k"), required=True, help="projection width for the error report")
    p.add_argument("--out", help="also write the mixing measure JSON to this path")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("random-measure", help="write a seeded random q-exchangeable measure as JSON")
    p.add_argument("--n", type=_int("n", 0, bounds._MAX_N), required=True, help=f"0 <= n <= {bounds._MAX_N}")
    p.add_argument("--q", required=True)
    p.add_argument("--seed", type=_int("seed"), default=0)
    p.add_argument("--out", help="write to this path instead of stdout")
    p.set_defaults(func=cmd_random_measure)

    p = sub.add_parser("verify-all", help="run every invariant suite and report per-suite counts")
    p.add_argument("--max-n", type=_int("max-n", 0, 12), default=8, help="0 <= max-n <= 12")
    p.add_argument("--q", default="1/2,1/3,2/3", help="comma-separated fractions")
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's exit: 0 after --help, 2 after a usage error
        return exc.code
    except _UsageError as exc:
        with contextlib.suppress(_UsageError):  # a full stderr was discarded
            _emit(f"error: {exc}\n", stream="stderr")
        return 2
