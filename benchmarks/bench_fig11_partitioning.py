"""E9 / Figure 11 (Appendix D.1): greedy vs equi-width partitioning.

Runs the cost-model-driven greedy partitioner and the naive equi-width
split under the same workload, then compares actual query processing
time with each scheme.  Expected shape: greedy is never worse and
typically 2-4.7x faster, with the gap largest for small w.
"""

from __future__ import annotations

import pytest

from repro import SearchParams
from repro.core.pkwise import PKWiseSearcher
from repro.eval import run_searcher
from repro.partition import GreedyPartitioner
from repro.partition.cost_model import calibrated_weights
from repro.partition.equi_width import equi_width_scheme

from common import order_for, workload, write_report

SETTINGS = [(25, 5), (50, 8), (100, 8)]
K_MAX = 4

_collected: dict[tuple, dict[str, float]] = {}


def _measure(w: int, tau: int) -> dict[str, float]:
    key = (w, tau)
    if key in _collected:
        return _collected[key]
    data, queries, _truth = workload("REUTERS")
    order = order_for("REUTERS", w)
    params = SearchParams(w=w, tau=tau, k_max=K_MAX)

    # Calibrate the cost-model op weights on this runtime (the paper's
    # constants encode C++ ratios), then run the greedy search on the
    # perturbed surrogate sample.
    seed_partitioner = GreedyPartitioner(
        data, params, order=order, b1_fraction=0.25, b2_fraction=0.1,
        sample_ratio=0.08,
    )
    sample = seed_partitioner.sample_workload()
    weights = calibrated_weights(data, sample, params, order)
    partitioner = GreedyPartitioner(
        data, params, order=order, weights=weights,
        b1_fraction=0.25, b2_fraction=0.1, sample_ratio=0.08,
    )
    greedy_scheme, report = partitioner.partition(workload=sample)
    equi = equi_width_scheme(order.universe_size, params.k_max)

    greedy_searcher = PKWiseSearcher(data, params, scheme=greedy_scheme, order=order)
    equi_searcher = PKWiseSearcher(data, params, scheme=equi, order=order)
    # Warm up, then take the best of two interleaved runs per scheme.
    run_searcher(greedy_searcher, queries[:2])
    run_searcher(equi_searcher, queries[:2])
    greedy_seconds = min(
        run_searcher(greedy_searcher, queries, name="greedy").avg_query_seconds
        for _ in range(2)
    )
    equi_seconds = min(
        run_searcher(equi_searcher, queries, name="equi-width").avg_query_seconds
        for _ in range(2)
    )
    result = {
        "greedy": greedy_seconds,
        "equi": equi_seconds,
        "evaluations": report.evaluations,
        "borders": greedy_scheme.borders,
    }
    _collected[key] = result
    return result


@pytest.mark.parametrize("w,tau", SETTINGS)
def test_fig11_greedy_vs_equiwidth(benchmark, w, tau):
    result = benchmark.pedantic(_measure, args=(w, tau), rounds=1, iterations=1)
    assert result["greedy"] > 0


def test_fig11_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = ["Figure 11: greedy vs equi-width partitioning (avg query ms)"]
    lines.append(
        f"{'setting':<18}{'greedy':>10}{'equi-width':>12}{'speedup':>9}"
        f"   borders (cost evals)"
    )
    for w, tau in SETTINGS:
        result = _collected.get((w, tau))
        if not result:
            continue
        lines.append(
            f"w={w:<5} tau={tau:<7}"
            f"{result['greedy'] * 1e3:>10.2f}{result['equi'] * 1e3:>12.2f}"
            f"{result['equi'] / result['greedy']:>8.1f}x"
            f"   {result['borders']} ({result['evaluations']})"
        )
    write_report("fig11_partitioning", lines)
