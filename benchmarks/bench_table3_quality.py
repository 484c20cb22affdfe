"""E10 / Table 3: precision and recall on REUTERS and TREC profiles.

Runs pkwise (exact — Adapt and Faerie share its quality by definition)
and FBW at the paper's two settings, (w=25, tau=5) and (w=50, tau=10),
against the injected ground truth.  Expected shape: the looser setting
(w=25) trades precision for much higher recall; FBW's recall is far
below pkwise's (the paper: FBW misses at least half of true results on
REUTERS).
"""

from __future__ import annotations

import pytest

from repro import SearchParams
from repro.baselines import FBWSearcher
from repro.core.pkwise import PKWiseSearcher
from repro.eval import evaluate_quality, run_searcher

from common import order_for, workload, write_report

SETTINGS = [(25, 5), (50, 10)]

_collected: dict[tuple, object] = {}


def _measure(profile: str, algorithm: str, w: int, tau: int):
    key = (profile, algorithm, w, tau)
    if key in _collected:
        return _collected[key]
    # 16 queries -> 4 ground-truth cases per obfuscation level.
    data, queries, truth = workload(profile, num_queries=16)
    order = order_for(profile, w)
    params = SearchParams(w=w, tau=tau, k_max=3)
    if algorithm == "pkwise":
        searcher = PKWiseSearcher(data, params, order=order)
    else:
        searcher = FBWSearcher(data, params.with_k_max(1), order=order)
    run = run_searcher(searcher, queries, name=algorithm)
    report = evaluate_quality(run.results_by_query, truth, w)
    _collected[key] = report
    return report


@pytest.mark.parametrize("profile", ["REUTERS", "TREC"])
@pytest.mark.parametrize("algorithm", ["pkwise", "fbw"])
@pytest.mark.parametrize("w,tau", SETTINGS)
def test_table3_quality(benchmark, profile, algorithm, w, tau):
    report = benchmark.pedantic(
        _measure, args=(profile, algorithm, w, tau), rounds=1, iterations=1
    )
    assert 0.0 <= report.recall <= 1.0


def test_table3_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = ["Table 3: precision/recall on REUTERS and TREC profiles"]
    lines.append(
        f"{'algorithm':<26}{'REUTERS prec':>13}{'REUTERS rec':>13}"
        f"{'TREC prec':>11}{'TREC rec':>10}"
    )
    for algorithm in ("pkwise", "fbw"):
        for w, tau in SETTINGS:
            reuters = _collected.get(("REUTERS", algorithm, w, tau))
            trec = _collected.get(("TREC", algorithm, w, tau))
            if not (reuters and trec):
                continue
            lines.append(
                f"{algorithm} (w={w}, tau={tau})".ljust(26)
                + f"{reuters.precision:>12.1%}{reuters.recall:>13.1%}"
                + f"{trec.precision:>11.1%}{trec.recall:>10.1%}"
            )
    pk = _collected.get(("REUTERS", "pkwise", 25, 5))
    fbw = _collected.get(("REUTERS", "fbw", 25, 5))
    if pk and fbw:
        lines.append(
            f"shape: FBW recall {fbw.recall:.0%} <= pkwise recall "
            f"{pk.recall:.0%} (approximate method misses results)"
        )
    write_report("table3_quality", lines)
