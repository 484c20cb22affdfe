"""E5 / Table 2: index construction time (REUTERS).

For pkwise the time decomposes into token-universe partitioning
(offline, cost-model driven) + indexing, as in the paper's
"part + index" column.  Expected shape: Adapt/Faerie indexing times grow
with w and dwarf pkwise's indexing part; FBW is the cheapest; pkwise's
partitioning part grows steeply with tau (the paper reports 2000s at
tau=20 full scale).  pkwise indexes the corpus in one array pass, and
the partitioner's cost model builds one such index per scheme it tries,
so both pkwise columns measure that build.
"""

from __future__ import annotations

import time

import pytest

from repro import SearchParams
from repro.baselines import AdaptSearcher, FaerieSearcher, FBWSearcher
from repro.core.pkwise import PKWiseSearcher
from repro.partition import GreedyPartitioner

from common import order_for, workload, write_report

SETTINGS = [(25, 2), (50, 2), (100, 2), (100, 5)]

_collected: dict[tuple, dict[str, float]] = {}


def _measure(w: int, tau: int) -> dict[str, float]:
    key = (w, tau)
    if key in _collected:
        return _collected[key]
    data, _queries, _truth = workload("REUTERS")
    order = order_for("REUTERS", w)
    params = SearchParams(w=w, tau=tau, k_max=3)
    flat = params.with_k_max(1)

    start = time.perf_counter()
    partitioner = GreedyPartitioner(
        data, params, order=order, b1_fraction=0.34, b2_fraction=0.17,
        sample_ratio=0.05,
    )
    scheme, _report = partitioner.partition()
    partition_seconds = time.perf_counter() - start

    times = {
        "pkwise_partition": partition_seconds,
        "pkwise_index": PKWiseSearcher(
            data, params, scheme=scheme, order=order
        ).index_build_seconds,
        "adapt": AdaptSearcher(data, flat, order=order).index_build_seconds,
        "faerie": FaerieSearcher(data, flat, order=order).index_build_seconds,
        "fbw": FBWSearcher(data, flat, order=order).index_build_seconds,
    }
    _collected[key] = times
    return times


@pytest.mark.parametrize("w,tau", SETTINGS)
def test_table2_build_times(benchmark, w, tau):
    times = benchmark.pedantic(_measure, args=(w, tau), rounds=1, iterations=1)
    assert times["pkwise_index"] > 0


def test_table2_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = ["Table 2: index construction time (seconds)"]
    lines.append(
        f"{'setting':<18}{'adapt':>9}{'faerie':>9}{'fbw':>9}"
        f"{'pkwise (part + index)':>26}"
    )
    for w, tau in SETTINGS:
        times = _collected.get((w, tau))
        if not times:
            continue
        lines.append(
            f"w={w:<4} tau={tau:<8}"
            f"{times['adapt']:>9.2f}{times['faerie']:>9.2f}{times['fbw']:>9.2f}"
            f"{times['pkwise_partition']:>14.2f} + {times['pkwise_index']:<8.2f}"
        )
    lines.append(
        "notes: pkwise's partitioning part dominates and grows with looser "
        "constraints (the paper's Table 2 trend); its indexing part, one "
        "array pass over the corpus, is below adapt/faerie as in the paper "
        "and at this scale below fbw too, whose build loops over q-grams "
        "in Python (see EXPERIMENTS.md)."
    )
    write_report("table2_index_build", lines)
