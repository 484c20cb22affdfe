"""E4 / Figure 7: index sizes (REUTERS and TREC).

Index size is measured in abstract postings entries (one entry per
(signature, interval) for pkwise, per (key, window) for Adapt/Faerie,
per stored fingerprint for FBW), which is proportional to bytes across
all four structures.  Expected shape: Adapt and Faerie are identical and
largest (they index every token of every window), pkwise is the smallest
exact index (prefix-only + interval compression, paper: 3.5-86.7x
smaller), FBW is smallest overall but approximate.
"""

from __future__ import annotations

import pytest

from repro import SearchParams
from repro.baselines import AdaptSearcher, FaerieSearcher, FBWSearcher
from repro.core.pkwise import PKWiseSearcher

from common import order_for, workload, write_report

TAU_SWEEP = [2, 5, 8]
W_SWEEP = [25, 50, 100]

_collected: dict[tuple, dict[str, int]] = {}


def _measure(profile: str, w: int, tau: int) -> dict[str, int]:
    key = (profile, w, tau)
    if key in _collected:
        return _collected[key]
    data, _queries, _truth = workload(profile)
    order = order_for(profile, w)
    params = SearchParams(w=w, tau=tau, k_max=4)
    flat = params.with_k_max(1)
    sizes = {
        "pkwise": PKWiseSearcher(data, params, order=order).index.num_postings,
        "adapt": AdaptSearcher(data, flat, order=order).index_entries,
        "faerie": FaerieSearcher(data, flat, order=order).index_entries,
        "fbw": FBWSearcher(data, flat, order=order).index_entries,
    }
    _collected[key] = sizes
    return sizes


@pytest.mark.parametrize("profile", ["REUTERS", "TREC"])
@pytest.mark.parametrize("tau", TAU_SWEEP)
def test_fig7_vary_tau(benchmark, profile, tau):
    sizes = benchmark.pedantic(
        _measure, args=(profile, 100, tau), rounds=1, iterations=1
    )
    assert sizes["pkwise"] < sizes["adapt"]


@pytest.mark.parametrize("profile", ["REUTERS", "TREC"])
@pytest.mark.parametrize("w", W_SWEEP)
def test_fig7_vary_w(benchmark, profile, w):
    sizes = benchmark.pedantic(
        _measure, args=(profile, w, 5), rounds=1, iterations=1
    )
    assert sizes["pkwise"] < sizes["adapt"]


def test_fig7_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = ["Figure 7: index sizes (postings entries)"]
    header = f"{'setting':<24}{'pkwise':>10}{'adapt':>10}{'faerie':>10}{'fbw':>10}{'adapt/pkw':>11}"
    for profile in ("REUTERS", "TREC"):
        lines.append(f"-- {profile}")
        lines.append(header)
        for w, tau in [(100, t) for t in TAU_SWEEP] + [(w, 5) for w in W_SWEEP]:
            sizes = _collected.get((profile, w, tau))
            if not sizes:
                continue
            ratio = sizes["adapt"] / max(1, sizes["pkwise"])
            lines.append(
                f"w={w:<4} tau={tau:<12}"
                f"{sizes['pkwise']:>10}{sizes['adapt']:>10}"
                f"{sizes['faerie']:>10}{sizes['fbw']:>10}{ratio:>10.1f}x"
            )
    write_report("fig7_index_size", lines)
