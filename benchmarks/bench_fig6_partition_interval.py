"""E3 / Figure 6: effect of partitioning and interval sharing (REUTERS).

Compares three variants with phase-decomposed query time:

* ``P+I``   — partitioned k-wise with interval sharing (Algorithm 4),
* ``Non-P`` — non-partitioned k-wise (all tokens in class 3, the
  paper's best fixed k) with interval sharing,
* ``Non-I`` — partitioned k-wise without interval sharing (Algorithm 2).

Expected shape: partitioning cuts signature-generation time; interval
sharing cuts all three phases (paper: 2.2-5.5x overall).
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro import SearchParams
from repro.core.pkwise import PKWiseSearcher
from repro.core.pkwise_nonint import PKWiseNonIntervalSearcher
from repro.eval import run_searcher
from repro.partition.scheme import PartitionScheme

from common import order_for, workload, write_report

SETTINGS = [(100, 2), (100, 5), (100, 8), (50, 5), (25, 5)]
VARIANTS = ["P+I", "Non-P", "Non-I"]

_collected: dict[tuple, object] = {}


@lru_cache(maxsize=None)
def _searcher(variant: str, w: int, tau: int):
    data, _queries, _truth = workload("REUTERS")
    order = order_for("REUTERS", w)
    if variant == "P+I":
        params = SearchParams(w=w, tau=tau, k_max=4)
        return PKWiseSearcher(data, params, order=order)
    if variant == "Non-P":
        params = SearchParams(w=w, tau=tau, k_max=3)
        scheme = PartitionScheme.all_k(order.universe_size, 3)
        return PKWiseSearcher(data, params, scheme=scheme, order=order)
    if variant == "Non-I":
        params = SearchParams(w=w, tau=tau, k_max=4)
        return PKWiseNonIntervalSearcher(data, params, order=order)
    raise ValueError(variant)


def _run(variant: str, w: int, tau: int):
    searcher = _searcher(variant, w, tau)
    _data, queries, _truth = workload("REUTERS")
    run = run_searcher(searcher, queries, name=variant)
    _collected[(variant, w, tau)] = run
    return run.avg_query_seconds


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("w,tau", SETTINGS)
def test_fig6_variants(benchmark, variant, w, tau):
    _searcher(variant, w, tau)  # build outside the timed region
    benchmark.pedantic(_run, args=(variant, w, tau), rounds=1, iterations=1)


def test_fig6_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [
        "Figure 6: partitioned vs non-partitioned, interval vs non-interval",
        "(per-phase avg query time; P+I = pkwise)",
    ]
    for w, tau in SETTINGS:
        lines.append(f"-- w={w}, tau={tau}")
        for variant in VARIANTS:
            run = _collected.get((variant, w, tau))
            if run is not None:
                lines.append("  " + run.phase_row())
        p_i = _collected.get(("P+I", w, tau))
        non_i = _collected.get(("Non-I", w, tau))
        if p_i and non_i and p_i.avg_query_seconds > 0:
            lines.append(
                f"  shape: interval sharing speedup "
                f"{non_i.avg_query_seconds / p_i.avg_query_seconds:.1f}x"
            )
    write_report("fig6_partition_interval", lines)
