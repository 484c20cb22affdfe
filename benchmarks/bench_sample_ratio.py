"""E12 / Section 7.1 text: sample-ratio robustness of partitioning.

The paper reports that varying the surrogate-workload sample ratio from
0.5% to 2.5% barely moves query time (4.64ms..4.39ms on REUTERS).  This
bench sweeps the ratio and measures query time with each resulting
scheme.  Expected shape: a flat curve.
"""

from __future__ import annotations

import pytest

from repro import SearchParams
from repro.core.pkwise import PKWiseSearcher
from repro.eval import run_searcher
from repro.partition import GreedyPartitioner

from common import order_for, workload, write_report

RATIOS = [0.02, 0.05, 0.10, 0.20]  # scaled up vs paper's 0.5%-2.5%
W, TAU = 50, 3                      # because the bench corpus is tiny

_collected: dict[float, float] = {}


def _measure(ratio: float) -> float:
    if ratio in _collected:
        return _collected[ratio]
    data, queries, _truth = workload("REUTERS")
    order = order_for("REUTERS", W)
    params = SearchParams(w=W, tau=TAU, k_max=3)
    partitioner = GreedyPartitioner(
        data, params, order=order, b1_fraction=0.34, b2_fraction=0.17,
        sample_ratio=ratio, seed=5,
    )
    scheme, _report = partitioner.partition()
    searcher = PKWiseSearcher(data, params, scheme=scheme, order=order)
    run_searcher(searcher, queries[:2])  # warm-up
    seconds = min(
        run_searcher(searcher, queries).avg_query_seconds for _ in range(3)
    )
    _collected[ratio] = seconds
    return seconds


@pytest.mark.parametrize("ratio", RATIOS)
def test_sample_ratio(benchmark, ratio):
    benchmark.pedantic(_measure, args=(ratio,), rounds=1, iterations=1)


def test_sample_ratio_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [
        "Section 7.1: effect of workload sample ratio on query time "
        f"(w={W}, tau={TAU})"
    ]
    lines.append(f"{'ratio':<10}{'avg query ms':>14}")
    for ratio in RATIOS:
        value = _collected.get(ratio)
        if value is not None:
            lines.append(f"{ratio:<10.1%}{value * 1e3:>14.2f}")
    values = [v for v in _collected.values()]
    if len(values) >= 2:
        spread = max(values) / min(values)
        lines.append(f"shape: max/min spread {spread:.2f}x (paper: ~1.06x, flat)")
    write_report("sample_ratio", lines)
