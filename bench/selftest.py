"""Self-test of the benchmark harness at tiny sizes (under a minute).

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that a corrupted reference digest turns ops into failures (so the output
gate is not vacuous), that traced layer times sum to no more than the op's
time, that computed counts repeat exactly, and that the benchmark refuses to
run without the library sources.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from run import COMPUTED_COUNTS  # noqa: E402

RUN = str(wl.BENCH_DIR / "run.py")
SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


def fail(message: str) -> None:
    print(f"SELFTEST FAIL: {message}")
    sys.exit(1)


def bench(*args: str, cwd: Path | None = None) -> tuple[int, list[str], dict | None]:
    cmd = [sys.executable, RUN if cwd is None else str(cwd / "bench" / "run.py"), *args]
    _, code, out, _ = wl.timed_run(cmd)
    lines = out.decode().strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        record = None
    return code, lines, record


def tiny(workload: str, trace: int, *extra: str):
    return bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
                 "--size", "tiny", *extra)


def check_record(workload: str, trace: int, code: int, lines: list[str], record: dict | None) -> dict:
    where = f"{workload} --trace {trace}"
    if code != 0 or record is None:
        fail(f"{where}: exit {code}\n" + "\n".join(lines[-10:]))
    if set(record) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(record)}")
    if not record["correct"] or record["failed"] != 0 or record["attempted"] < 1:
        fail(f"{where}: not correct: {record}")
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    if set(record["metrics"]) != {m["name"] for m in spec}:
        fail(f"{where}: metric names differ from BENCHMARK.json")
    for m in spec:
        got = record["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            fail(f"{where}: {m['name']} printed as {got}")
        if not any(line.split()[:1] == [m["name"]] and m["unit"] in line.split() for line in lines):
            fail(f"{where}: no human-readable line for {m['name']} with unit {m['unit']}")
        if not trace and got["value"] <= 0:
            fail(f"{where}: end-to-end metric {m['name']} is {got['value']}")
    if not trace and not any(line.startswith("failed_op_ratio") for line in lines):
        fail(f"{where}: failed_op_ratio not printed")
    return record["metrics"]


def check_tracer_self_time() -> None:
    """Traced layer self times never sum past the traced op's wall time."""
    sys.path.insert(0, str(wl.SRC))
    import qexchange as qx
    from tracer import Tracer

    inputs, _ = wl.mixture_setup(qx, "tiny", 0)
    tracer = Tracer()
    tracer.install(qx)
    try:
        start = time.perf_counter()
        for m in inputs:
            wl.mixture_op(qx, m, 2)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    if not 0 < tracer.self_total() <= wall:
        fail(f"tracer self times {tracer.self_total()} vs op wall {wall}")
    if tracer.inclusive("definetti.approx_error") > wall:
        fail("a layer's inclusive time exceeds the op's wall time")
    if hasattr(qx.approx_error, "__wrapped_original__"):
        fail("uninstall left a traced function in place")


def check_without_sources() -> None:
    """Only BENCHMARK.json and bench/: the benchmark must refuse, printing no result."""
    scratch = wl.ROOT / ".bench_selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        scratch.mkdir()
        shutil.copy(wl.ROOT / "BENCHMARK.json", scratch)
        shutil.copytree(wl.BENCH_DIR, scratch / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, record = bench("--workload", "mixture-warm", "--seconds", "1", cwd=scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if code == 0 or record is not None:
        fail(f"ran without library sources: exit {code}, result {record}")


def main() -> None:
    check_tracer_self_time()
    print("ok tracer self times within the op")
    for workload in wl.WORKLOADS:
        check_record(workload, 0, *tiny(workload, 0))
        first = check_record(workload, 1, *tiny(workload, 1))
        second = check_record(workload, 1, *tiny(workload, 1))
        for name in COMPUTED_COUNTS:
            if first[name] != second[name]:
                fail(f"{workload}: computed {name} differs between runs: {first[name]} vs {second[name]}")
        print(f"ok {workload}: every metric printed with its unit; computed counts repeat")

        for trace in (0, 1):
            code, lines, record = tiny(workload, trace, "--corrupt-reference")
            if code == 0 or record is None or record["correct"] or record["failed"] < 1:
                fail(f"{workload} --trace {trace}: corrupted reference did not fail: {record}")
            if trace == 0 and record["failed"] != record["attempted"]:
                fail(f"{workload}: corrupted reference failed {record['failed']} of {record['attempted']} ops")
        print(f"ok {workload}: a corrupted reference digest fails the ops")

    code, lines, record = bench("--workload", "mixture-warm", "--seed", "7", "--seconds", "1",
                                "--size", "tiny")
    if code != 0 or not any(line.startswith("# digest mixture-warm seed=7") for line in lines):
        fail("non-default seed: no digest printed")
    print("ok non-default seed prints its digest and passes the bound check")
    check_without_sources()
    print("ok refuses to run without library sources")
    print("SELFTEST PASS")


if __name__ == "__main__":
    main()
