"""E8 / Figure 10: large thresholds and sub-partitioning (PAN profile).

Sweeps the number of sub-partitions m for large tau at a large window.
Expected shape: query time first drops with m (fewer combinations) and
then rebounds (longer prefixes, worse selectivity); the best m grows
with tau — the basis of the paper's m = 0.25 * tau rule.

The paper uses w=500, tau up to 100 on full PAN; the bench uses w=200
and tau up to 40 on the reduced PAN profile to stay in pure-Python
budgets (set REPRO_BENCH_SCALE to raise).
"""

from __future__ import annotations

import pytest

from repro import SearchParams
from repro.core.pkwise import PKWiseSearcher
from repro.eval import run_searcher
from repro.ordering import GlobalOrder

from common import pan_workload, write_report

W = 200
TAU_SWEEP = [10, 25, 40]
M_SWEEP = [1, 5, 10, 15, 25]

_collected: dict[tuple, float] = {}
_orders: dict[int, GlobalOrder] = {}


def _measure(tau: int, m: int) -> float:
    key = (tau, m)
    if key in _collected:
        return _collected[key]
    data, queries, _truth = pan_workload()
    order = _orders.get(W)
    if order is None:
        order = GlobalOrder(data, W)
        _orders[W] = order
    params = SearchParams(w=W, tau=tau, k_max=4, m=m)
    searcher = PKWiseSearcher(data, params, order=order)
    run = run_searcher(searcher, queries)
    _collected[key] = run.avg_query_seconds
    return run.avg_query_seconds


@pytest.mark.parametrize("tau", TAU_SWEEP)
@pytest.mark.parametrize("m", M_SWEEP)
def test_fig10_m_sweep(benchmark, tau, m):
    benchmark.pedantic(_measure, args=(tau, m), rounds=1, iterations=1)


def test_fig10_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [f"Figure 10: large thresholds, w={W} (avg query ms, PAN profile)"]
    lines.append(f"{'tau':<8}" + "".join(f"m={m:<10}" for m in M_SWEEP) + "best m")
    for tau in TAU_SWEEP:
        cells = []
        best_m, best = None, float("inf")
        for m in M_SWEEP:
            value = _collected.get((tau, m))
            if value is None:
                cells.append(f"{'n/a':<12}")
                continue
            cells.append(f"{value * 1e3:<12.1f}")
            if value < best:
                best_m, best = m, value
        lines.append(f"{tau:<8}" + "".join(cells) + str(best_m))
    lines.append(
        "shape: larger tau favours larger m (combination count vs "
        "selectivity trade, Section 6)."
    )
    write_report("fig10_large_tau", lines)
