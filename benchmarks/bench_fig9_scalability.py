"""E7 / Figure 9: scalability with dataset size (TREC and PAN profiles).

Samples 20%..100% of the data documents and measures avg query time for
pkwise and Adapt.  Expected shape: both grow roughly linearly; pkwise
grows slower (paper: 3.8x and 7.1x faster at full size).
"""

from __future__ import annotations

import pytest

from repro import SearchParams
from repro.baselines import AdaptSearcher
from repro.core.pkwise import PKWiseSearcher
from repro.eval import run_searcher
from repro.ordering import GlobalOrder

from common import pan_workload, workload, write_report

FRACTIONS = [0.2, 0.4, 0.6, 0.8, 1.0]
#: (profile, w, tau) — the paper uses (TREC, 100, 20) and (PAN, 25, 5);
#: tau scaled down with the bench corpus.
CASES = {"TREC": (50, 8), "PAN": (25, 5)}

_collected: dict[tuple, dict[str, float]] = {}


def _measure(profile: str, fraction: float) -> dict[str, float]:
    key = (profile, fraction)
    if key in _collected:
        return _collected[key]
    if profile == "PAN":
        data, queries, _truth = pan_workload()
    else:
        data, queries, _truth = workload(profile)
    w, tau = CASES[profile]
    count = max(2, round(fraction * len(data)))
    sample = data.subset(range(count))
    order = GlobalOrder(sample, w)
    params = SearchParams(w=w, tau=tau, k_max=4)
    pkwise = run_searcher(
        PKWiseSearcher(sample, params, order=order), queries, name="pkwise"
    )
    adapt = run_searcher(
        AdaptSearcher(sample, params.with_k_max(1), order=order),
        queries,
        name="adapt",
    )
    result = {
        "pkwise": pkwise.avg_query_seconds,
        "adapt": adapt.avg_query_seconds,
    }
    _collected[key] = result
    return result


@pytest.mark.parametrize("profile", ["TREC", "PAN"])
@pytest.mark.parametrize("fraction", FRACTIONS)
def test_fig9_scalability(benchmark, profile, fraction):
    result = benchmark.pedantic(
        _measure, args=(profile, fraction), rounds=1, iterations=1
    )
    assert result["pkwise"] > 0


def test_fig9_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = ["Figure 9: scalability with dataset size (avg query ms)"]
    for profile in ("TREC", "PAN"):
        w, tau = CASES[profile]
        lines.append(f"-- {profile} (w={w}, tau={tau})")
        lines.append(f"{'fraction':<10}{'pkwise':>10}{'adapt':>10}{'speedup':>9}")
        for fraction in FRACTIONS:
            times = _collected.get((profile, fraction))
            if not times:
                continue
            lines.append(
                f"{fraction:<10.0%}{times['pkwise'] * 1e3:>10.2f}"
                f"{times['adapt'] * 1e3:>10.2f}"
                f"{times['adapt'] / times['pkwise']:>8.1f}x"
            )
    write_report("fig9_scalability", lines)
