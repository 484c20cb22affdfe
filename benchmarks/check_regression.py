#!/usr/bin/env python
"""Diff two repro.obs benchmark metrics snapshots; fail on regressions.

Consumes the files written by ``bench_parallel_scaling.py --metrics-out``
(or any two snapshots with the same layout) and enforces two different
contracts on them:

* **Counters must match exactly.**  Abstract operation counts
  (postings entries, hash ops, results...) are deterministic for a
  given workload and independent of the execution path, so any drift
  between two records of the same config is a correctness regression,
  not noise.  This also holds *across start methods*: a fork-run and a
  spawn-run of the same workload must agree counter for counter.
* **Timers may only regress within a tolerance.**  Wall clock is noisy;
  the guard fails only when a timer exceeds the previous record by more
  than ``--time-tolerance`` (a fraction: 0.5 = +50%).

Records with different configs (corpus size, w, tau, query count) are
not comparable; the guard reports that and exits 0 unless ``--strict``
is given, so a freshly re-scaled benchmark does not spuriously fail CI.

Usage::

    python benchmarks/check_regression.py CURRENT.json PREVIOUS.json \
        [--time-tolerance 0.5] [--strict]

Exit codes: 0 = no regression (or no comparable baseline),
1 = regression found, 2 = malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Config keys that must agree for two records to be comparable.
COMPARABLE_KEYS = ("profile", "num_documents", "num_queries", "w", "tau", "k_max")


def load_record(path: Path) -> dict | None:
    """Load one snapshot record; None when the file does not exist."""
    if not path.exists():
        return None
    try:
        record = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    if not isinstance(record, dict):
        raise SystemExit(f"error: {path} is not a snapshot record")
    return record


def comparable(current: dict, previous: dict) -> list[str]:
    """Config keys that differ between the two records (empty = comparable)."""
    cur, prev = current.get("config", {}), previous.get("config", {})
    return [
        key
        for key in COMPARABLE_KEYS
        if cur.get(key) != prev.get(key)
    ]


def unwrap_snapshot(payload: dict) -> dict:
    """Reduce a ``metrics_snapshot()`` wrapper to its registry snapshot.

    Accepts either the bare ``{counters, timers, gauges}`` dict or any
    wrapper that nests it under a ``metrics`` key (one or more levels).
    """
    while (
        isinstance(payload, dict)
        and "counters" not in payload
        and isinstance(payload.get("metrics"), dict)
    ):
        payload = payload["metrics"]
    return payload


def iter_metric_sections(record: dict):
    """Yield ``(label, registry_snapshot)`` pairs of one record."""
    serial = record.get("serial")
    if isinstance(serial, dict) and "metrics" in serial:
        yield "serial", unwrap_snapshot(serial)
    for row in record.get("parallel", []) or []:
        if isinstance(row, dict) and "metrics" in row:
            yield f"jobs={row.get('jobs')}", unwrap_snapshot(row["metrics"])


def diff_counters(label: str, current: dict, previous: dict) -> list[str]:
    """Exact-match check over one section's counter maps."""
    problems = []
    cur = current.get("counters", {})
    prev = previous.get("counters", {})
    for name in sorted(set(cur) | set(prev)):
        # run.* metrics describe the run shape, not the workload's
        # operation counts; total counts are covered by the config gate.
        if cur.get(name) != prev.get(name):
            problems.append(
                f"[{label}] counter {name}: {prev.get(name)} -> {cur.get(name)}"
            )
    return problems


def diff_timers(
    label: str, current: dict, previous: dict, tolerance: float
) -> list[str]:
    """Timers that regressed beyond ``previous * (1 + tolerance)``."""
    problems = []
    cur = current.get("timers", {})
    prev = previous.get("timers", {})
    for name in sorted(set(cur) & set(prev)):
        before, after = float(prev[name]), float(cur[name])
        if before > 0 and after > before * (1.0 + tolerance):
            problems.append(
                f"[{label}] timer {name}: {before:.4f}s -> {after:.4f}s "
                f"(+{(after / before - 1.0) * 100:.0f}%, "
                f"allowed +{tolerance * 100:.0f}%)"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("current", type=Path,
                        help="latest metrics snapshot (from --metrics-out)")
    parser.add_argument("previous", type=Path,
                        help="baseline snapshot to diff against")
    parser.add_argument("--time-tolerance", type=float, default=0.5,
                        help="allowed fractional timer growth (default 0.5)")
    parser.add_argument("--strict", action="store_true",
                        help="fail (exit 1) on incomparable configs or a "
                             "missing baseline instead of passing")
    args = parser.parse_args(argv)

    current = load_record(args.current)
    if current is None:
        print(f"error: current snapshot {args.current} does not exist",
              file=sys.stderr)
        return 2
    previous = load_record(args.previous)
    if previous is None:
        print(f"no baseline at {args.previous}; nothing to diff",
              file=sys.stderr)
        return 1 if args.strict else 0

    mismatched = comparable(current, previous)
    if mismatched:
        print(
            "records are not comparable; config differs on: "
            + ", ".join(mismatched),
            file=sys.stderr,
        )
        return 1 if args.strict else 0

    current_sections = dict(iter_metric_sections(current))
    previous_sections = dict(iter_metric_sections(previous))
    problems: list[str] = []

    # Internal parity: within the current record, every parallel
    # section's counters must equal the serial section's — the merged
    # registry of a --jobs N run is field-for-field the serial run's.
    serial_metrics = current_sections.get("serial")
    if serial_metrics is not None:
        for label, metrics in current_sections.items():
            if label != "serial":
                problems.extend(
                    diff_counters(f"serial vs {label}", metrics, serial_metrics)
                )

    checked = 0
    for label in sorted(set(current_sections) & set(previous_sections)):
        checked += 1
        problems.extend(
            diff_counters(label, current_sections[label], previous_sections[label])
        )
        problems.extend(
            diff_timers(
                label,
                current_sections[label],
                previous_sections[label],
                args.time_tolerance,
            )
        )
    if checked == 0:
        print("no overlapping metric sections between the records",
              file=sys.stderr)
        return 1 if args.strict else 0

    if problems:
        print(f"REGRESSION: {len(problems)} metric(s) drifted:", file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(
        f"ok: {checked} section(s) compared, counters identical, "
        f"timers within +{args.time_tolerance * 100:.0f}%",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
