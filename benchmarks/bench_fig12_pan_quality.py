"""E11 / Figure 12: precision/recall by plagiarism type (PAN profile).

Generates separate query sets for each PAN plagiarism type (artificial
with none/low/high obfuscation, simulated) and scores pkwise and FBW at
the paper's two settings.  Expected shape: (w=25, tau=5) reaches ~100%
recall on artificial plagiarism and stays high on simulated; FBW's
recall collapses for heavily obfuscated types because its rare-gram
fingerprints are exactly the grams obfuscation perturbs.
"""

from __future__ import annotations

import pytest

from repro import SearchParams
from repro.baselines import FBWSearcher
from repro.core.pkwise import PKWiseSearcher
from repro.corpus.plagiarism import ObfuscationLevel
from repro.corpus.synthetic import ReuseSpec
from repro.eval import evaluate_quality, run_searcher

from common import workload, write_report

SETTINGS = [(25, 5), (50, 10)]
LEVELS = [
    ObfuscationLevel.NONE,
    ObfuscationLevel.LOW,
    ObfuscationLevel.HIGH,
    ObfuscationLevel.SIMULATED,
]

_collected: dict[tuple, object] = {}


def _measure(algorithm: str, w: int, tau: int):
    """One run covering all levels (ground truth carries the level)."""
    key = (algorithm, w, tau)
    if key in _collected:
        return _collected[key]
    # The level-dependence of quality comes from the injection, not the
    # corpus statistics, so the (faster) REUTERS-profile corpus carries
    # the PAN-style four-level injection mix here; see DESIGN.md.
    data, queries, truth = workload(
        "REUTERS",
        seed=31,
        segment_length=120,
        levels=tuple(LEVELS),
        num_queries=16,  # 4 ground-truth cases per obfuscation level
    )
    from repro.ordering import GlobalOrder

    order = GlobalOrder(data, w)
    params = SearchParams(w=w, tau=tau, k_max=3)
    if algorithm == "pkwise":
        searcher = PKWiseSearcher(data, params, order=order)
    else:
        searcher = FBWSearcher(data, params.with_k_max(1), order=order)
    run = run_searcher(searcher, queries, name=algorithm)
    report = evaluate_quality(run.results_by_query, truth, w)
    _collected[key] = report
    return report


@pytest.mark.parametrize("algorithm", ["pkwise", "fbw"])
@pytest.mark.parametrize("w,tau", SETTINGS)
def test_fig12_levels(benchmark, algorithm, w, tau):
    report = benchmark.pedantic(
        _measure, args=(algorithm, w, tau), rounds=1, iterations=1
    )
    assert 0.0 <= report.recall <= 1.0


def test_fig12_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = ["Figure 12: recall by plagiarism type (PAN-style injection)"]
    header = f"{'algorithm':<26}" + "".join(
        f"{level.value:>11}" for level in LEVELS
    ) + f"{'precision':>11}"
    lines.append(header)
    for w, tau in SETTINGS:
        for algorithm in ("pkwise", "fbw"):
            report = _collected.get((algorithm, w, tau))
            if report is None:
                continue
            cells = "".join(
                f"{report.recall_by_level.get(level, 0.0):>11.0%}"
                for level in LEVELS
            )
            lines.append(
                f"{algorithm} (w={w}, tau={tau})".ljust(26)
                + cells
                + f"{report.precision:>11.1%}"
            )
    pk = _collected.get(("pkwise", 25, 5))
    fbw = _collected.get(("fbw", 25, 5))
    if pk and fbw:
        sim = ObfuscationLevel.SIMULATED
        lines.append(
            f"shape: simulated-plagiarism recall pkwise "
            f"{pk.recall_by_level.get(sim, 0.0):.0%} vs FBW "
            f"{fbw.recall_by_level.get(sim, 0.0):.0%}"
        )
    write_report("fig12_pan_quality", lines)
