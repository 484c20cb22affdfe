"""E13 / Section 3.1 ablation: choice of fixed k for non-partitioned k-wise.

The paper states that k = 3 gives the best runtime for most (w, tau)
settings when a single fixed k is used (which then motivates mixing k's
via partitioning).  This bench sweeps k in {1..4} for non-partitioned
k-wise signatures.  Expected shape: intermediate k wins; k=1 loses on
candidates, large k loses on combination counts.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro import SearchParams
from repro.core.pkwise import PKWiseSearcher
from repro.eval import run_searcher
from repro.partition.scheme import PartitionScheme

from common import order_for, workload, write_report

K_SWEEP = [1, 2, 3, 4]
SETTINGS = [(50, 5), (100, 5)]

_collected: dict[tuple, float] = {}


@lru_cache(maxsize=None)
def _searcher(k: int, w: int, tau: int) -> PKWiseSearcher:
    data, _queries, _truth = workload("REUTERS")
    order = order_for("REUTERS", w)
    params = SearchParams(w=w, tau=tau, k_max=k)
    scheme = PartitionScheme.all_k(order.universe_size, k)
    return PKWiseSearcher(data, params, scheme=scheme, order=order)


def _run(k: int, w: int, tau: int) -> float:
    searcher = _searcher(k, w, tau)
    _data, queries, _truth = workload("REUTERS")
    run = run_searcher(searcher, queries)
    _collected[(k, w, tau)] = run.avg_query_seconds
    return run.avg_query_seconds


@pytest.mark.parametrize("k", K_SWEEP)
@pytest.mark.parametrize("w,tau", SETTINGS)
def test_ablation_fixed_k(benchmark, k, w, tau):
    _searcher(k, w, tau)
    benchmark.pedantic(_run, args=(k, w, tau), rounds=1, iterations=1)


def test_ablation_k_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = ["Section 3.1 ablation: fixed k for non-partitioned k-wise (ms)"]
    lines.append(f"{'setting':<18}" + "".join(f"k={k:<10}" for k in K_SWEEP))
    for w, tau in SETTINGS:
        cells = []
        for k in K_SWEEP:
            value = _collected.get((k, w, tau))
            cells.append(f"{value * 1e3:<12.2f}" if value else f"{'n/a':<12}")
        lines.append(f"w={w:<5} tau={tau:<7}" + "".join(cells))
    write_report("ablation_k", lines)
