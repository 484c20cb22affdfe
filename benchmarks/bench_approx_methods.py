"""E15 (extension): the approximate-method landscape.

The paper compares against one approximate method (FBW).  This
extension bench adds the other two classics from its related-work
section — hash-min Winnowing and MinHash+LSH — and measures, on the
same workload, the runtime / result-completeness / ground-truth-recall
trade-off of all three against exact pkwise.

Expected shape: every approximate method is fast; none is complete;
their failure modes differ (FBW locks onto rare error grams, Winnowing
is order-sensitive, MinHash misses banding-unlucky pairs).
"""

from __future__ import annotations

import pytest

from repro import SearchParams
from repro.baselines import FBWSearcher, MinHashLSHSearcher, WinnowingSearcher
from repro.core.pkwise import PKWiseSearcher
from repro.eval import evaluate_quality, run_searcher
from repro.ordering import GlobalOrder

from common import workload, write_report

W, TAU = 25, 5

_collected: dict[str, tuple] = {}


def _measure(algorithm: str):
    if algorithm in _collected:
        return _collected[algorithm]
    data, queries, truth = workload("REUTERS", num_queries=16)
    order = GlobalOrder(data, W)
    params = SearchParams(w=W, tau=TAU, k_max=3)
    flat = params.with_k_max(1)
    if algorithm == "pkwise":
        searcher = PKWiseSearcher(data, params, order=order)
    elif algorithm == "fbw":
        searcher = FBWSearcher(data, flat, order=order)
    elif algorithm == "winnowing":
        searcher = WinnowingSearcher(data, flat, order=order)
    elif algorithm == "minhash-lsh":
        searcher = MinHashLSHSearcher(data, flat, order=order)
    else:
        raise ValueError(algorithm)
    run = run_searcher(searcher, queries, name=algorithm)
    report = evaluate_quality(run.results_by_query, truth, W)
    _collected[algorithm] = (run, report)
    return run, report


ALGORITHMS = ["pkwise", "fbw", "winnowing", "minhash-lsh"]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_approx_methods(benchmark, algorithm):
    run, _report = benchmark.pedantic(
        _measure, args=(algorithm,), rounds=1, iterations=1
    )
    assert run.num_queries > 0


def test_approx_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [
        f"Extension: approximate methods vs exact pkwise (w={W}, tau={TAU})"
    ]
    lines.append(
        f"{'algorithm':<14}{'avg ms':>9}{'results':>9}{'complete':>10}"
        f"{'recall':>8}{'precision':>11}"
    )
    exact_results = None
    if "pkwise" in _collected:
        exact_results = _collected["pkwise"][0].num_results
    for algorithm in ALGORITHMS:
        entry = _collected.get(algorithm)
        if not entry:
            continue
        run, report = entry
        fraction = (
            run.num_results / exact_results if exact_results else 1.0
        )
        lines.append(
            f"{algorithm:<14}{run.avg_query_seconds * 1e3:>9.2f}"
            f"{run.num_results:>9}{fraction:>10.0%}"
            f"{report.recall:>8.0%}{report.precision:>11.1%}"
        )
    lines.append(
        "shape: only the exact method is complete; approximate methods "
        "trade completeness for speed with distinct failure modes."
    )
    write_report("approx_methods", lines)
