"""Shared pieces of the e2e benchmark: paths, clocks, statistics.

Everything here is harness-side; nothing is imported from ``repro`` at
module import so ``run.py`` can report a missing checkout cleanly.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def require_repo() -> None:
    """Put ``src`` on the path, or exit 2 when the program is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: {SRC / 'repro'} not found — the benchmark builds and "
            f"drives the program from its source tree",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_contract() -> dict:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------
# The sandbox is a shared 2-core VM: the same work runs up to 1.7x slower
# for seconds at a time when a neighbour is busy (measured: one fixed
# query repeated for 7 minutes, medians of consecutive 3.5 s windows have
# IQR/median 16%).  More samples inside a run do not average that out,
# because the slow spells outlast a run.  So every timed chunk of work is
# bracketed by a short calibration loop doing what the engine's hot paths
# do — rolling updates of a small dict — and the chunk's time is divided
# by how much slower than REFERENCE_CAL_S the loop ran just then (same
# 7 minutes: IQR/median 5.5%; an arithmetic-only loop gave 7%, a loop of
# cache-missing reads 17%).  The loop is plain Python in this file: a
# change to ``repro`` cannot speed it up, so a real gain or loss is not
# normalised away.  Raw times are kept beside the normalised ones in the
# result file.

_CAL_STEPS = 10000
_CAL_WINDOW = 50


def _lcg(count: int, modulus: int, state: int = 12345) -> list[int]:
    out = []
    for _ in range(count):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        out.append((state >> 33) % modulus)
    return out


_CAL_ROLL = _lcg(_CAL_STEPS, 3000)

#: Seconds one :func:`calibrate` call takes on the quiet reference host.
REFERENCE_CAL_S = 0.0014


def calibrate() -> float:
    """Seconds the fixed calibration loop takes right now."""
    start = time.perf_counter()
    roll = _CAL_ROLL
    counts: dict[int, int] = {}
    for token in roll[:_CAL_WINDOW]:
        counts[token] = counts.get(token, 0) + 1
    for position in range(_CAL_WINDOW, _CAL_STEPS):
        outgoing = roll[position - _CAL_WINDOW]
        old = counts[outgoing]
        if old == 1:
            del counts[outgoing]
        else:
            counts[outgoing] = old - 1
        incoming = roll[position]
        counts[incoming] = counts.get(incoming, 0) + 1
    return time.perf_counter() - start


def calibrate_after_wait() -> float:
    """:func:`calibrate` for a caller that was blocked, not computing.

    The first loop after a thread slept on a socket runs about 10% slow
    (cold cache, clock ramp) — the waiter's state, not the speed the work
    ran at — so one loop is spent warming up.
    """
    calibrate()
    return calibrate()


def slowdown(*calibrations: float) -> float:
    """How much slower than the reference host the given loops ran."""
    return (sum(calibrations) / len(calibrations)) / REFERENCE_CAL_S


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, fraction: float) -> float:
    """Linear-interpolated percentile; ``values`` need not be sorted."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = fraction * (len(ordered) - 1)
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def relative_spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set of this process (or ``pid``), in MB."""
    if pid is None:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def environment() -> dict:
    import numpy

    return {
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
