"""Workload definitions shared by the benchmark driver and its child processes.

Two workloads, each a closed loop with one client that sends the next
operation only after the previous one returned:

``sweep-cold``
    One op is the CLI certification sweep in a fresh interpreter.  Every CLI
    run starts with an empty q-binomial cache, and the grid is large enough
    for the library's process pool to engage, so this is where the cold
    kernel build and the pool show.
``mixture-warm``
    One op is ``decompose`` + ``approx_error`` + the ``upper_constant * q^n``
    check on a seeded random measure, inside one long-lived process whose
    q-binomial cache was warmed during set-up.  The kernel only serves warm
    lookups here; the mixture materialisation dominates.

The CLI invariant suites (``verify-all --max-n 8``) are not a workload of
their own: in a fresh interpreter that op swings by about 30% between runs a
minute apart on a shared 2-vCPU VM, more than any bound allows.  The traced
run of ``sweep-cold`` measures the ``verify`` layer instead.

The sweep runs a fixed command, so its inputs do not depend on the seed and
its stdout digest is checked against the reference for every seed.  The
mixture inputs come from the seed; the reference digests cover the default
seed, and every seed gets the bound check.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import threading
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_FILE = BENCH_DIR / "reference.json"

WORKLOADS = ("sweep-cold", "mixture-warm")
DEFAULT_SEED = 0

#: ``default`` is what the benchmark measures; ``tiny`` exists for the
#: harness self-test and finishes in about a second per workload.  The
#: ``verify-all`` entry is the command the sweep-cold traced run probes.
SIZES = {
    "default": {
        "sweep-cold": {"q": "2/3", "k": 3, "n_start": 3, "n_end": 200, "n1": "half"},
        "verify-all": {"max_n": 8, "q": "1/2,1/3,2/3"},
        "mixture-warm": {"q": "2/3", "n": 64, "k": 4, "measures": 16},
    },
    "tiny": {
        "sweep-cold": {"q": "2/3", "k": 3, "n_start": 3, "n_end": 70, "n1": "half"},
        "verify-all": {"max_n": 3, "q": "1/2,1/3,2/3"},
        "mixture-warm": {"q": "2/3", "n": 12, "k": 2, "measures": 4},
    },
}

#: Longest a child process may run before its process group is killed.
CHILD_TIMEOUT_S = 150

VERIFY_SUITES = ("qbinom", "exchangeability", "projection", "upper_bound", "sharpness", "decomposition")


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def timed_run(cmd: list[str], stdin: bytes | None = None) -> tuple[float, int, bytes, bytes]:
    """Run ``cmd`` in the checkout root; wall time to its exit, exit code, stdout, stderr.

    ``communicate()`` with a timeout polls for the exit in sleeps of up to
    50 ms, which shows up as steps in short timings, so the wait here blocks
    and a timer kills the child's process group (pool workers included) if
    it runs past ``CHILD_TIMEOUT_S``.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, start_new_session=True,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
    timer.start()
    try:
        out, err = proc.communicate(stdin)
    finally:
        timer.cancel()
    return time.perf_counter() - start, proc.returncode, out, err


def cli_argv(command: str, size: str) -> list[str]:
    """CLI arguments of ``sweep-cold`` or ``verify-all`` at ``size``."""
    cfg = SIZES[size][command]
    if command == "sweep-cold":
        return [
            "sweep", "--q", cfg["q"], "--k", str(cfg["k"]),
            "--n", f"{cfg['n_start']}..{cfg['n_end']}", "--n1", cfg["n1"],
        ]
    return ["verify-all", "--max-n", str(cfg["max_n"]), "--q", cfg["q"]]


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def load_reference(size: str) -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)[size]


def corrupt(digest: str) -> str:
    """A digest that differs from ``digest`` in every position."""
    return "".join("0123456789abcdef"[(int(c, 16) + 1) % 16] for c in digest)


def fractions_digest(values) -> str:
    """SHA-256 of ``str()`` of each exact value, one per line."""
    return sha256("".join(f"{v}\n" for v in values))


# ---------------------------------------------------------------------------
# sweep-cold, library side
# ---------------------------------------------------------------------------

def sweep_config(qx, size: str):
    cfg = SIZES[size]["sweep-cold"]
    return qx.RateSweepConfig(
        q=Fraction(cfg["q"]), k=cfg["k"], n_start=cfg["n_start"], n_end=cfg["n_end"],
        n1_rule=cfg["n1"],
    )


def reports_digest(reports) -> str:
    values = []
    for r in reports:
        values += [r.n, r.n1, r.distance, r.upper, r.lower]
    return fractions_digest(values)


# ---------------------------------------------------------------------------
# mixture-warm
# ---------------------------------------------------------------------------

def mixture_setup(qx, size: str, seed: int):
    """Warm the q-binomial cache through the public API, then build inputs.

    Returns ``(measures, warm_s)`` where ``warm_s`` is the time of the cache
    warm-up, which in a fresh interpreter is a cold q-binomial build.
    """
    cfg = SIZES[size]["mixture-warm"]
    q = Fraction(cfg["q"])
    start = time.perf_counter()
    for n in range(cfg["n"] + 1):
        for k in range(n + 1):
            qx.q_binomial(n, k, q)
    warm_s = time.perf_counter() - start
    rng = random.Random(seed)
    seeds = [rng.randrange(2**32) for _ in range(cfg["measures"])]
    return [qx.random_q_exch(cfg["n"], q, s) for s in seeds], warm_s


def mixture_op(qx, m, k: int):
    """The op: decompose, mixture error, and the certified bound check."""
    mu = qx.decompose(m)
    err = qx.approx_error(m, k)
    ok = err <= qx.upper_constant(k, m.q) * m.q**m.n
    return mu, err, ok


def mixture_digest(mu, err, ok: bool) -> str:
    return fractions_digest([*mu.alpha, err, ok])


def useful_entries(approx_error_calls) -> tuple[int, int]:
    """Entries ``approx_error`` materialises and the ones it reads (computed).

    ``approx_error(m, k)`` mixes one validated ``q_bernoulli`` measure of
    ``n + 1`` entries per nonzero level mass of ``m`` and then reads the
    ``k + 1`` values of the projection.
    """
    built = used = 0
    for (m, k), _ in approx_error_calls:
        built += sum(1 for b in m.base if b != 0) * (m.n + 1)
        used += k + 1
    return built, used


def triangle_entries(qbinom_calls) -> tuple[int, int]:
    """Entries of full per-q triangles that serve ``qbinom_calls`` (computed),
    and the number of distinct entries the calls read."""
    top: dict = {}
    for n, _k, q in qbinom_calls:
        top[q] = max(top.get(q, 0), n)
    built = sum((n + 1) * (n + 2) // 2 for n in top.values())
    return built, len(qbinom_calls)
