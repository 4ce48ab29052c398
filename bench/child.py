"""Child processes of the benchmark: set-up probes, the workload loop, and
the fresh-interpreter probes of the traced run.

Each subcommand prints one JSON object as its last stdout line.  The driver
(``run.py``) starts these with ``src`` on ``PYTHONPATH``; cold numbers always
come from a fresh interpreter, never from clearing library state.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

import workloads as wl

def import_library():
    """Import qexchange from the checkout's ``src`` and nowhere else."""
    import qexchange

    origin = os.path.realpath(qexchange.__file__)
    if not origin.startswith(os.path.realpath(wl.SRC) + os.sep):
        sys.exit(f"qexchange was imported from {origin}, not from {wl.SRC}")
    return qexchange


def emit(record: dict) -> None:
    print(json.dumps(record))


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def self_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_cli(argv: list[str]) -> tuple[float, float, int, bytes]:
    """One CLI op in a fresh interpreter: wall, CPU of its tree, exit code, stdout.

    Only one child runs at a time, so the change in the reaped children's
    CPU is this op's, pool workers included.
    """
    cpu0 = children_cpu()
    wall, code, out, err = wl.timed_run([sys.executable, "-m", "qexchange", *argv])
    if code != 0:
        sys.stderr.write(err.decode(errors="replace")[-2000:])
    return wall, children_cpu() - cpu0, code, out


# ---------------------------------------------------------------------------
# set-up and the measured loop
# ---------------------------------------------------------------------------

def setup(size: str, seed: int):
    """The mixture session's set-up: import, warm cache, seeded inputs."""
    qx = import_library()
    inputs, _ = wl.mixture_setup(qx, size, seed)
    return qx, inputs


def cmd_setup(args) -> None:
    setup(args.size, args.seed)
    emit({"ok": True})


def loop_cli(args, deadline_s: float, expected: str | None) -> dict:
    argv = wl.cli_argv("sweep-cold", args.size)
    latencies, cpus, failures, digests = [], [], [], set()
    start = time.perf_counter()
    while time.perf_counter() - start < deadline_s:
        wall, cpu, code, out = run_cli(argv)
        latencies.append(wall)
        cpus.append(cpu)
        digest = wl.sha256(out)
        digests.add(digest)
        if code != 0:
            failures.append(f"op {len(latencies)}: exit code {code}")
        elif expected is not None and digest != expected:
            failures.append(f"op {len(latencies)}: stdout sha256 {digest[:12]} != reference {expected[:12]}")
    return {"latencies": latencies, "cpus": cpus, "failures": failures, "digests": sorted(digests)}


def loop_mixture(args, deadline_s: float, expected: list | None) -> dict:
    qx, inputs = setup(args.size, args.seed)
    k = wl.SIZES[args.size]["mixture-warm"]["k"]
    seen: dict[int, str] = {}
    latencies, cpus, failures = [], [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < deadline_s:
        idx = i % len(inputs)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        mu, err, ok = wl.mixture_op(qx, inputs[idx], k)
        latencies.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - cpu0)
        # The gate runs off the clock.
        digest = wl.mixture_digest(mu, err, ok)
        if not ok:
            failures.append(f"op {i + 1}: approx_error {float(err):.3e} above upper_constant * q^n")
        elif expected is not None and digest != expected[idx]:
            failures.append(f"op {i + 1}: output sha256 {digest[:12]} != reference {expected[idx][:12]}")
        elif seen.setdefault(idx, digest) != digest:
            failures.append(f"op {i + 1}: output differs from the previous op on the same input")
        i += 1
    gate_errors = []
    for idx, m in enumerate(inputs):
        if idx not in seen:
            mu, err, ok = wl.mixture_op(qx, m, k)
            seen[idx] = wl.mixture_digest(mu, err, ok)
            if expected is not None and seen[idx] != expected[idx]:
                gate_errors.append(f"input {idx}: output sha256 differs from reference")
    run_digest = wl.sha256("".join(seen[idx] for idx in range(len(inputs))))
    return {"latencies": latencies, "cpus": cpus, "failures": failures,
            "gate_errors": gate_errors, "digests": [run_digest]}


def expected_digests(args):
    """Reference digests that apply to this run, or None (non-default seed)."""
    ref = wl.load_reference(args.size)[args.workload]
    if args.workload == "sweep-cold":
        expected = ref["stdout_sha256"]
        return wl.corrupt(expected) if args.corrupt_reference else expected
    if args.seed != ref["seed"]:
        return None
    return [wl.corrupt(d) if args.corrupt_reference else d for d in ref["op_sha256"]]


def cmd_run(args) -> None:
    expected = expected_digests(args)
    if args.workload == "sweep-cold":
        result = loop_cli(args, args.seconds, expected)
    else:
        result = loop_mixture(args, args.seconds, expected)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_kb"] = max(own, kids)
    result["reference_checked"] = expected is not None
    emit(result)


# ---------------------------------------------------------------------------
# traced-run probes, each in a fresh interpreter
# ---------------------------------------------------------------------------

def layer_metrics(tracer) -> dict:
    """Per-layer numbers of one traced op, from the tracer's aggregates."""
    t = tracer
    metrics = {
        "projection.closed_form_s": t.inclusive(
            "projection.project_extreme_closed_form", "projection.project_bernoulli_closed_form"),
        "definetti.extreme_vs_bernoulli_s": t.inclusive("definetti.extreme_vs_bernoulli_distance"),
        "measures.q_bernoulli_s": t.inclusive("measures.q_bernoulli"),
        "definetti.mixture_s": t.inclusive("definetti.mixture"),
        "definetti.decompose_s": t.inclusive("definetti.decompose"),
        "projection.project_s": t.inclusive("projection.project"),
        "projection.tv_distance_s": t.inclusive("projection.tv_distance"),
        "definetti.approx_error_s": t.inclusive("definetti.approx_error"),
        "bounds.verify_rate_s": t.inclusive("bounds.verify_rate"),
        "bounds.constants_s": t.inclusive("bounds.upper_constant", "bounds.lower_constant"),
        "bounds.self_s": t.self_time("bounds.verify_rate"),
        "qcore.result_bits_max": t.result_bits_max,
    }
    for suite in wl.VERIFY_SUITES:
        name = f"verify.suite_{suite}"
        metrics[f"verify.{suite}_s"] = t.inclusive(name)
        metrics[f"verify.{suite}_checks"] = sum(r.checks for _, r in t.kept.get(name, ()))
    built, used = wl.useful_entries(t.kept.get("definetti.approx_error", ()))
    metrics["definetti.materialised_entries"] = built
    metrics["definetti.useful_entry_ratio"] = used / built if built else 0.0
    built, used = wl.triangle_entries(t.qbinom_calls)
    metrics["qcore.entries_built"] = built
    metrics["qcore.entries_used"] = used
    metrics["qcore.useful_entry_ratio"] = used / built if built else 0.0
    return metrics


def new_tracer(qx):
    from tracer import Tracer

    keep = ["definetti.approx_error", *(f"verify.suite_{s}" for s in wl.VERIFY_SUITES)]
    tracer = Tracer(keep=keep)
    tracer.install(qx)
    return tracer


def replay_lookups(qx, qbinom_calls: dict) -> float:
    """Time the warm binomial reads of an op with the untraced function."""
    q_binomial = getattr(qx.q_binomial, "__wrapped_original__", qx.q_binomial)
    start = time.perf_counter()
    for args, count in qbinom_calls.items():
        for _ in range(count):
            q_binomial(*args)
    return time.perf_counter() - start


def distinct_calls(qbinom_calls: dict) -> list:
    return [[n, k, str(q)] for n, k, q in qbinom_calls]


def cmd_probe_import(args) -> None:
    start = time.perf_counter()
    import_library()
    import qexchange.cli  # noqa: F401
    emit({"import_s": time.perf_counter() - start})


def library_call(qx, command: str, size: str):
    """The library call behind a CLI command, and a digest of its exact result."""
    if command == "sweep-cold":
        reports = qx.verify_rate(wl.sweep_config(qx, size))
        return wl.reports_digest(reports), {}
    cfg = wl.SIZES[size]["verify-all"]
    qs = [Fraction(q) for q in cfg["q"].split(",")]
    results = qx.verify.run_all(cfg["max_n"], qs)
    return None, {r.name: [r.checks, r.ok] for r in results}


def cmd_probe_lib(args) -> None:
    """The library call behind a CLI op, fully traced or not.

    Untraced, the verify suites still get one span each (six spans in all),
    so their times come without the cost of tracing every call inside them.
    """
    qx = import_library()
    from tracer import Tracer

    suites = [f"verify.suite_{s}" for s in wl.VERIFY_SUITES]
    if args.traced:
        tracer = new_tracer(qx)
    else:
        tracer = Tracer(keep=suites)
        tracer.install(qx, modules=("verify",))
    cpu0 = self_cpu() + children_cpu()
    start = time.perf_counter()
    digest, suites = library_call(qx, args.call, args.size)
    wall = time.perf_counter() - start
    cpu = self_cpu() + children_cpu() - cpu0
    record = {
        "wall_s": wall, "cpu_s": cpu, "digest": digest, "suites": suites,
        "suite_s": {s: tracer.inclusive(f"verify.suite_{s}") for s in wl.VERIFY_SUITES},
        "suite_checks": {s: sum(r.checks for _, r in tracer.kept.get(f"verify.suite_{s}", ()))
                         for s in wl.VERIFY_SUITES},
    }
    if args.traced:
        record["self_total_s"] = tracer.self_total()
        record["layers"] = layer_metrics(tracer)
        record["lookup_s"] = replay_lookups(qx, tracer.qbinom_calls)
        record["qbinom_calls"] = distinct_calls(tracer.qbinom_calls)
    emit(record)


def grid_pass(qx, cfg) -> list:
    """The sweep's library work, one grid point after another, in public calls."""
    reports = []
    for n, n1 in cfg.grid():
        distance = qx.extreme_vs_bernoulli_distance(n, n1, cfg.k, cfg.q)
        upper = qx.upper_constant(cfg.k, cfg.q) * cfg.q**n
        lower = qx.lower_constant(cfg.k, cfg.q) * cfg.q**n if n1 >= cfg.k >= 1 else None
        reports.append(qx.DistanceReport(n=n, k=cfg.k, n1=n1, q=cfg.q, distance=distance,
                                         upper=upper, lower=lower))
    return reports


def cmd_probe_grid(args) -> None:
    """Serial sweep replay: a cold pass, then the warm grid evaluation.

    The CLI sweep may run its grid in pool workers whose calls the tracer
    cannot see, so the per-layer split of ``sweep-cold`` comes from this
    replay of the same grid points.
    """
    qx = import_library()
    cfg = wl.sweep_config(qx, args.size)
    tracer = new_tracer(qx)
    start = time.perf_counter()
    reports = grid_pass(qx, cfg)
    cold_wall = time.perf_counter() - start
    cold_self = tracer.self_total()
    calls = distinct_calls(tracer.qbinom_calls)
    tracer.reset()
    start = time.perf_counter()
    warm_reports = grid_pass(qx, cfg)
    warm_wall = time.perf_counter() - start
    emit({
        "cold_wall_s": cold_wall, "cold_self_total_s": cold_self,
        "warm_wall_s": warm_wall, "warm_self_total_s": tracer.self_total(),
        "digest": wl.reports_digest(reports), "warm_digest": wl.reports_digest(warm_reports),
        "layers": layer_metrics(tracer),
        "lookup_s": replay_lookups(qx, tracer.qbinom_calls),
        "qbinom_calls": calls,
    })


def cmd_probe_build(args) -> None:
    """Cold q-binomial build: the op's distinct reads, in first-call order."""
    calls = [(n, k, Fraction(q)) for n, k, q in json.load(sys.stdin)]
    qx = import_library()
    start = time.perf_counter()
    for call in calls:
        qx.q_binomial(*call)
    emit({"build_s": time.perf_counter() - start})


def cmd_probe_mixture(args) -> None:
    """An untraced pass and a traced pass over the same warm inputs."""
    qx = import_library()
    inputs, warm_s = wl.mixture_setup(qx, args.size, args.seed)
    k = wl.SIZES[args.size]["mixture-warm"]["k"]
    plain_walls, digests = [], []
    for m in inputs:
        start = time.perf_counter()
        mu, err, ok = wl.mixture_op(qx, m, k)
        plain_walls.append(time.perf_counter() - start)
        digests.append(wl.mixture_digest(mu, err, ok))
    tracer = new_tracer(qx)
    traced_walls, per_op, self_ok, traced_digests, lookups = [], [], True, [], []
    for m in inputs:
        tracer.reset()
        start = time.perf_counter()
        mu, err, ok = wl.mixture_op(qx, m, k)
        wall = time.perf_counter() - start
        traced_walls.append(wall)
        self_ok = self_ok and tracer.self_total() <= wall
        traced_digests.append(wl.mixture_digest(mu, err, ok))
        per_op.append(layer_metrics(tracer))
        lookups.append(replay_lookups(qx, tracer.qbinom_calls))
    layers = {name: statistics.median_low(op[name] for op in per_op) for name in per_op[0]}
    emit({
        "build_s": warm_s,
        "plain_op_s": statistics.median(plain_walls),
        "traced_op_s": statistics.median(traced_walls),
        "self_within_op": self_ok,
        "digests": digests, "traced_digests": traced_digests,
        "layers": layers,
        "lookup_s": statistics.median(lookups),
    })


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "setup", "probe-mixture"):
        p = sub.add_parser(name)
        p.add_argument("--size", choices=tuple(wl.SIZES), default="default")
        p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
        if name == "run":
            p.add_argument("--workload", choices=wl.WORKLOADS, required=True)
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--corrupt-reference", action="store_true")
    p = sub.add_parser("probe-lib")
    p.add_argument("--call", choices=("sweep-cold", "verify-all"), required=True)
    p.add_argument("--size", choices=tuple(wl.SIZES), default="default")
    p.add_argument("--traced", action="store_true")
    p = sub.add_parser("probe-grid")
    p.add_argument("--size", choices=tuple(wl.SIZES), default="default")
    sub.add_parser("probe-import")
    sub.add_parser("probe-build")
    args = parser.parse_args(argv)
    handlers = {
        "setup": cmd_setup, "run": cmd_run, "probe-lib": cmd_probe_lib,
        "probe-grid": cmd_probe_grid, "probe-import": cmd_probe_import,
        "probe-build": cmd_probe_build, "probe-mixture": cmd_probe_mixture,
    }
    handlers[args.command](args)


if __name__ == "__main__":
    main()
