"""qexchange benchmark driver.

    python3 bench/run.py --workload sweep-cold --seed 0 --seconds 50 --trace 0

Run from the root of a checkout.  Each workload runs in its own process (a
closed loop, one client, one op at a time; see ``workloads.py``), so peaks
and CPU from one workload never show in another.  With ``--trace 0`` the
end-to-end metrics are printed; with ``--trace 1`` a separate traced run
prints the per-layer metrics.  Human-readable lines come first and the last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from child import run_cli  # noqa: E402

CHILD = str(wl.BENCH_DIR / "child.py")
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 3
OVERHEAD_SAMPLES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "qcore.qbinom_build_s": "s",
    "qcore.qbinom_lookup_s": "s",
    "qcore.entries_built": "count",
    "qcore.entries_used": "count",
    "qcore.useful_entry_ratio": "ratio",
    "qcore.result_bits_max": "bits",
    "projection.closed_form_s": "s",
    "definetti.extreme_vs_bernoulli_s": "s",
    "measures.q_bernoulli_s": "s",
    "definetti.mixture_s": "s",
    "definetti.decompose_s": "s",
    "projection.project_s": "s",
    "projection.tv_distance_s": "s",
    "definetti.approx_error_s": "s",
    "definetti.materialised_entries": "count",
    "definetti.useful_entry_ratio": "ratio",
    "bounds.verify_rate_s": "s",
    "bounds.constants_s": "s",
    "bounds.self_s": "s",
    "bounds.cpu_over_wall": "ratio",
    **{f"verify.{s}_s": "s" for s in wl.VERIFY_SUITES},
    **{f"verify.{s}_checks": "count" for s in wl.VERIFY_SUITES},
    "cli.import_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}

#: Counts computed from the op's calls; they repeat exactly from run to run.
COMPUTED_COUNTS = (
    "qcore.entries_built", "qcore.entries_used", "qcore.useful_entry_ratio",
    "qcore.result_bits_max", "definetti.materialised_entries", "definetti.useful_entry_ratio",
    *(f"verify.{s}_checks" for s in wl.VERIFY_SUITES),
)


class BenchError(Exception):
    pass


def run_child(*args: str, stdin: str | None = None) -> tuple[dict, float]:
    """Run ``child.py`` in a fresh interpreter; its JSON record and wall time."""
    wall, code, out, err = wl.timed_run([sys.executable, CHILD, *args],
                                        None if stdin is None else stdin.encode())
    if code != 0:
        raise BenchError(f"child {' '.join(args)} exited {code}: {err.decode(errors='replace').strip()[-2000:]}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"child {' '.join(args)} printed no result")
    return json.loads(lines[-1]), wall


def environment(seed: int) -> dict:
    qexchange_vars = sorted(k for k in os.environ if k.startswith("QEXCHANGE_"))
    return {
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "seed": seed,
        "qexchange_env": qexchange_vars,
        "comparable": not qexchange_vars,
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it.

    Returns ``(value, percentile, samples_beyond)``.  With 20 or fewer
    samples no percentile above the median has 10 beyond it, so the tail
    falls back to the highest one with half the other samples beyond it.
    """
    ordered = sorted(samples)
    beyond = min(10, (len(ordered) - 1) // 2)
    rank = len(ordered) - beyond
    return ordered[rank - 1], 100.0 * rank / len(ordered), beyond


# ---------------------------------------------------------------------------
# --trace 0
# ---------------------------------------------------------------------------

def time_setup(args) -> float:
    """Wall time of one fresh set-up: the import every CLI sweep pays, or the
    mixture session's import, cache warm-up and input generation."""
    if args.workload == "sweep-cold":
        wall, code, _, err = wl.timed_run([sys.executable, "-c", "import qexchange.cli"])
        if code != 0:
            raise BenchError(f"importing qexchange.cli failed: {err.decode(errors='replace')[-2000:]}")
        return wall
    return run_child("setup", "--size", args.size, "--seed", str(args.seed))[1]


def measure(args) -> tuple[dict, dict]:
    time_setup(args)  # compiles bytecode and fills OS caches; not timed
    setups = [time_setup(args) for _ in range(SETUP_SAMPLES)]
    common = ["--workload", args.workload, "--size", args.size, "--seed", str(args.seed)]
    extra = ["--corrupt-reference"] if args.corrupt_reference else []
    result, _ = run_child("run", *common, "--seconds", str(args.seconds), *extra)
    lat, cpus = result["latencies"], result["cpus"]
    if not lat:
        raise BenchError("no op completed")
    tail_value, tail_pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_value,
        "ops_per_s": len(lat) / sum(lat),
        "cpu_s_per_op": statistics.median(cpus),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    failed = len(result["failures"])
    notes = {
        "setup_s": f"median of {SETUP_SAMPLES} fresh set-ups",
        "op_p50_s": f"n={len(lat)}",
        "op_tail_s": f"p{tail_pct:.1f}, {beyond} ops beyond, n={len(lat)}",
        "ops_per_s": "one closed-loop client",
        "cpu_s_per_op": "median, user+system, child processes included",
        "peak_rss_mb": "largest single process of the workload's tree",
    }
    lines = [f"failed_op_ratio  {failed / len(lat):.4f} ratio  ({failed} of {len(lat)} ops)"]
    lines += [f"# digest {args.workload} seed={args.seed} sha256={d}" for d in result["digests"]]
    if result["reference_checked"]:
        lines.append("# outputs compared with bench/reference.json")
    else:
        lines.append("# no reference digest for this seed: bound and repeat checks only")
    lines += [f"# FAIL {msg}" for msg in result["failures"][:5] + result.get("gate_errors", [])]
    summary = {
        "correct": failed == 0 and not result.get("gate_errors"),
        "attempted": len(lat),
        "failed": failed,
    }
    return metrics, {"notes": notes, "lines": lines, **summary}


# ---------------------------------------------------------------------------
# --trace 1
# ---------------------------------------------------------------------------

def check(errors: list[str], condition: bool, message: str) -> int:
    if not condition:
        errors.append(message)
    return 0 if condition else 1


def trace_sweep(args, ref: dict, errors: list[str]) -> tuple[dict, int, int]:
    """Traced run of sweep-cold, plus the verify-all probe; (metrics, attempted, failed)."""
    size = args.size
    # CLI op and untraced library call alternate, so that host speed drift
    # hits both sides of cli.overhead_s alike.
    walls, plains, failed = [], [], 0
    for _ in range(OVERHEAD_SAMPLES):
        wall, _, code, out = run_cli(wl.cli_argv("sweep-cold", size))
        failed += check(errors, code == 0 and wl.sha256(out) == expected(args, ref["stdout_sha256"]),
                        "CLI sweep output differs from reference")
        walls.append(wall)
        plains.append(run_child("probe-lib", "--call", "sweep-cold", "--size", size)[0])
    plain_s = statistics.median(p["wall_s"] for p in plains)
    traced, _ = run_child("probe-lib", "--call", "sweep-cold", "--size", size, "--traced")
    grid, _ = run_child("probe-grid", "--size", size)
    digests = {p["digest"] for p in plains} | {traced["digest"], grid["digest"], grid["warm_digest"]}
    failed += check(errors, digests == {expected(args, ref["reports_sha256"])},
                    "library sweep reports differ from reference")
    failed += check(errors, traced["self_total_s"] <= traced["wall_s"]
                    and grid["cold_self_total_s"] <= grid["cold_wall_s"]
                    and grid["warm_self_total_s"] <= grid["warm_wall_s"],
                    "traced self times exceed the op's wall time")
    layers = grid["layers"]
    for name in ("bounds.verify_rate_s", "bounds.self_s"):
        layers[name] = traced["layers"][name]
    build, _ = run_child("probe-build", stdin=json.dumps(grid["qbinom_calls"]))

    # The verify layer: the verify-all CLI op once, and the suites it runs,
    # each timed by a suite-level span, in a fresh interpreter.
    _, _, code, out = run_cli(wl.cli_argv("verify-all", size))
    printed = {}
    for line in out.decode().splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[2] == "checks":
            printed[parts[0]] = [int(parts[1]), parts[3] == "OK"]
    suites, _ = run_child("probe-lib", "--call", "verify-all", "--size", size)
    failed += check(errors, code == 0 and wl.sha256(out) == expected(args, ref["verify_stdout_sha256"]),
                    "CLI verify-all output differs from reference")
    failed += check(errors, suites["suites"] == printed,
                    "suite check counts differ between the CLI and the library")
    for suite, seconds in suites["suite_s"].items():
        layers[f"verify.{suite}_s"] = seconds
        layers[f"verify.{suite}_checks"] = suites["suite_checks"][suite]

    layers.update({
        "qcore.qbinom_build_s": build["build_s"],
        "qcore.qbinom_lookup_s": grid["lookup_s"],
        "bounds.cpu_over_wall": statistics.median(p["cpu_s"] / p["wall_s"] for p in plains),
        "cli.overhead_s": statistics.median(walls) - plain_s,
        "trace.overhead_s": traced["wall_s"] - plain_s,
    })
    return layers, 2 * OVERHEAD_SAMPLES + 3, failed


def expected(args, digest: str) -> str:
    return wl.corrupt(digest) if args.corrupt_reference else digest


def trace_mixture(args, ref: dict, errors: list[str]) -> tuple[dict, int, int]:
    rec, _ = run_child("probe-mixture", "--size", args.size, "--seed", str(args.seed))
    attempted = len(rec["digests"])
    failed = sum(a != b for a, b in zip(rec["digests"], rec["traced_digests"]))
    check(errors, failed == 0, "traced outputs differ from untraced outputs")
    if args.seed == ref["seed"]:
        bad = sum(a != expected(args, b) for a, b in zip(rec["digests"], ref["op_sha256"]))
        check(errors, bad == 0, "mixture outputs differ from reference")
        failed = max(failed, bad)
    failed += check(errors, rec["self_within_op"], "traced self times exceed an op's wall")
    layers = rec["layers"]
    layers.update({
        "qcore.qbinom_build_s": rec["build_s"],
        "qcore.qbinom_lookup_s": rec["lookup_s"],
        "bounds.cpu_over_wall": 0.0,
        "cli.overhead_s": 0.0,
        "trace.overhead_s": rec["traced_op_s"] - rec["plain_op_s"],
    })
    return layers, attempted, failed


def traced(args) -> tuple[dict, dict]:
    imports = [run_child("probe-import")[0]["import_s"] for _ in range(IMPORT_SAMPLES)]
    ref = wl.load_reference(args.size)[args.workload]
    errors: list[str] = []
    if args.workload == "sweep-cold":
        layers, attempted, failed = trace_sweep(args, ref, errors)
    else:
        layers, attempted, failed = trace_mixture(args, ref, errors)
    layers["cli.import_s"] = statistics.median(imports)
    metrics = {name: layers[name] for name in PER_LAYER_UNITS}
    notes = {name: "computed" for name in COMPUTED_COUNTS}
    lines = [f"# FAIL {msg}" for msg in errors]
    return metrics, {"notes": notes, "lines": lines, "correct": not errors,
                     "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(wl.SIZES), default="default",
                        help="input sizes; 'tiny' is for the harness self-test")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="alter every reference digest, to show that the output gate can fail")
    args = parser.parse_args(argv)

    if not (wl.SRC / "qexchange" / "__init__.py").is_file():
        print(f"error: no qexchange sources under {wl.SRC}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(wl.SRC), os.environ.get("PYTHONPATH")) if p)
    print(f"# qexchange benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("# env " + json.dumps(env))
    if not env["comparable"]:
        print(f"# NOT COMPARABLE: {', '.join(env['qexchange_env'])} set in the environment")
    try:
        metrics, info = (traced if args.trace else measure)(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        note = info["notes"].get(name)
        print(f"{name:34s} {value:<14.6g} {units[name]:6s}" + (f" ({note})" if note else ""))
    for line in info["lines"]:
        print(line)
    print(json.dumps({
        "correct": info["correct"],
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if info["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
