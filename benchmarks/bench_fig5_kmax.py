"""E2 / Figure 5: effect of k_max on query processing time (REUTERS).

The paper varies k_max in [1, 5] with (a) w=100, tau in {5..20} and
(b) tau=5, w in {25..100}.  Expected shape: k_max=1 (standard prefix
filtering) is slowest — up to orders of magnitude for loose constraints
at paper scale — while k_max in {3, 4, 5} are close, with larger k_max
paying off for larger tau / smaller w.  Index build time is excluded,
as in the paper (query processing only).
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro import SearchParams
from repro.core.pkwise import PKWiseSearcher
from repro.eval import run_searcher

from common import order_for, workload, write_report

TAU_SWEEP = [2, 5, 8]          # paper: 5, 10, 15, 20 at full scale
W_SWEEP = [25, 50, 100]        # paper: 25, 50, 75, 100
K_MAX_SWEEP = [1, 2, 3, 4, 5]

_collected: dict[tuple, float] = {}


@lru_cache(maxsize=None)
def _searcher(k_max: int, w: int, tau: int) -> PKWiseSearcher:
    data, _queries, _truth = workload("REUTERS")
    params = SearchParams(w=w, tau=tau, k_max=k_max)
    return PKWiseSearcher(data, params, order=order_for("REUTERS", w))


def _run(k_max: int, w: int, tau: int) -> float:
    searcher = _searcher(k_max, w, tau)
    _data, queries, _truth = workload("REUTERS")
    run = run_searcher(searcher, queries)
    _collected[(k_max, w, tau)] = run.avg_query_seconds
    return run.avg_query_seconds


@pytest.mark.parametrize("k_max", K_MAX_SWEEP)
@pytest.mark.parametrize("tau", TAU_SWEEP)
def test_fig5a_vary_tau(benchmark, k_max, tau):
    """Figure 5(a): w fixed at 100, tau varies."""
    _searcher(k_max, 100, tau)  # build outside the timed region
    benchmark.pedantic(_run, args=(k_max, 100, tau), rounds=1, iterations=1)


@pytest.mark.parametrize("k_max", K_MAX_SWEEP)
@pytest.mark.parametrize("w", W_SWEEP)
def test_fig5b_vary_w(benchmark, k_max, w):
    """Figure 5(b): tau fixed at 5, w varies."""
    _searcher(k_max, w, 5)
    benchmark.pedantic(_run, args=(k_max, w, 5), rounds=1, iterations=1)


def test_fig5_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = ["Figure 5: effect of k_max (avg query time, ms; build excluded)"]
    header = "        " + "".join(f"k_max={k:<2}    " for k in K_MAX_SWEEP)

    lines.append("(a) w=100, varying tau")
    lines.append(header)
    for tau in TAU_SWEEP:
        cells = []
        for k_max in K_MAX_SWEEP:
            value = _collected.get((k_max, 100, tau))
            cells.append(f"{value * 1e3:9.2f}  " if value else "      n/a  ")
        lines.append(f"tau={tau:<4}" + "".join(cells))

    lines.append("(b) tau=5, varying w")
    lines.append(header)
    for w in W_SWEEP:
        cells = []
        for k_max in K_MAX_SWEEP:
            value = _collected.get((k_max, w, 5))
            cells.append(f"{value * 1e3:9.2f}  " if value else "      n/a  ")
        lines.append(f"w={w:<6}" + "".join(cells))

    loosest = max(TAU_SWEEP)
    if (1, 100, loosest) in _collected:
        k1 = _collected[(1, 100, loosest)]
        best = min(
            _collected[(k, 100, loosest)]
            for k in K_MAX_SWEEP
            if (k, 100, loosest) in _collected
        )
        lines.append(
            f"shape: k_max=1 vs best at w=100, tau={loosest}: "
            f"{k1 * 1e3:.2f}ms vs {best * 1e3:.2f}ms ({k1 / best:.1f}x slower)"
        )
    write_report("fig5_kmax", lines)
