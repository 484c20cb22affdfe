"""E14 / Section 7.3 text: adjacent-window prefix sharing.

The paper motivates interval sharing by measuring the average Jaccard
similarity between the prefixes of adjacent windows: 0.966 at (w=100,
tau=5) on REUTERS, falling to 0.872 at w=25, and nearly flat in tau
(0.966 -> 0.963 for tau 5 -> 20).  This bench reproduces the
measurement, plus the fraction of slides where the prefix is literally
unchanged (the maintenance fast path).
"""

from __future__ import annotations

import pytest

from repro import SearchParams
from repro.core.pkwise import order_and_scheme
from repro.eval import prefix_sharing

from common import order_for, workload, write_report

W_SWEEP = [25, 50, 100]
TAU_SWEEP = [2, 5, 8]

_collected: dict[tuple, object] = {}


def _measure(w: int, tau: int):
    key = (w, tau)
    if key in _collected:
        return _collected[key]
    data, queries, _truth = workload("REUTERS")
    params = SearchParams(w=w, tau=tau, k_max=4)
    order, scheme = order_and_scheme(data, params, order_for("REUTERS", w))
    report = prefix_sharing(queries, order, w, tau, scheme)
    _collected[key] = report
    return report


@pytest.mark.parametrize("w", W_SWEEP)
def test_sharing_vary_w(benchmark, w):
    report = benchmark.pedantic(_measure, args=(w, 5), rounds=1, iterations=1)
    assert 0.0 < report.average_jaccard <= 1.0


@pytest.mark.parametrize("tau", TAU_SWEEP)
def test_sharing_vary_tau(benchmark, tau):
    report = benchmark.pedantic(_measure, args=(100, tau), rounds=1, iterations=1)
    assert 0.0 < report.average_jaccard <= 1.0


def test_sharing_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = ["Section 7.3: adjacent-prefix sharing in query windows"]
    lines.append(f"{'setting':<18}{'avg Jaccard':>12}{'identical':>11}")
    for w in W_SWEEP:
        report = _collected.get((w, 5))
        if report:
            lines.append(
                f"w={w:<4} tau=5      {report.average_jaccard:>11.3f}"
                f"{report.unchanged_fraction:>10.0%}"
            )
    for tau in TAU_SWEEP:
        report = _collected.get((100, tau))
        if report:
            lines.append(
                f"w=100  tau={tau:<6}{report.average_jaccard:>12.3f}"
                f"{report.unchanged_fraction:>10.0%}"
            )
    wide = _collected.get((100, 5))
    narrow = _collected.get((25, 5))
    if wide and narrow:
        lines.append(
            f"shape: sharing grows with w "
            f"({narrow.average_jaccard:.3f} at w=25 -> "
            f"{wide.average_jaccard:.3f} at w=100; paper: 0.872 -> 0.966)"
        )
    write_report("prefix_sharing", lines)
