#!/usr/bin/env python
"""Strict counter diff of two smoke metrics records.

``smoke_serving.py`` (plain, ``--shards``, ``--chaos``) and
``smoke_ingest.py`` write ``{"config": {...}, "serial": {"metrics":
<repro.obs snapshot>}}``.  Abstract operation counts (requests, cache
hits, postings entries, hash ops, WAL records, folds, results...) are
deterministic for a fixed-seed workload and independent of the execution
path, so two runs of one commit must agree counter for counter: any
drift is a correctness regression, not noise.  Wall clock is not judged
here — performance is gated by ``benchmarks/e2e/compare.py`` alone.

Usage::

    python benchmarks/check_regression.py RUN_1.json RUN_2.json --strict

Exit codes: 0 = same config and identical counters, 1 = a config key or
a counter differs (or there are no counters to compare), 2 = a file is
missing or is not a smoke metrics record.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_record(path: Path) -> tuple[dict, dict]:
    """``(config, counters)`` of one smoke metrics record.

    The registry snapshot may sit under one or more ``metrics`` keys
    (``metrics_snapshot()`` wrappers nest it).
    """
    record = json.loads(path.read_text())
    payload = record["serial"]
    while "counters" not in payload:
        payload = payload["metrics"]
    return record.get("config", {}), payload["counters"]


def differing(label: str, current: dict, previous: dict) -> list[str]:
    """One line per key whose value is not the same in both dicts."""
    return [
        f"{label} {key}: {previous.get(key)} -> {current.get(key)}"
        for key in sorted(set(current) | set(previous))
        if current.get(key) != previous.get(key)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("current", type=Path, help="one run's metrics record")
    parser.add_argument("previous", type=Path, help="the other run's record")
    parser.add_argument("--strict", action="store_true",
                        help="accepted for the documented command line; "
                             "the diff has no lenient mode")
    args = parser.parse_args(argv)

    try:
        config, counters = load_record(args.current)
        previous_config, previous_counters = load_record(args.previous)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: not a smoke metrics record: {exc!r}", file=sys.stderr)
        return 2

    problems = differing("config", config, previous_config)
    problems += differing("counter", counters, previous_counters)
    if not counters:
        problems.append("no counters to compare")
    if problems:
        print(f"REGRESSION: {len(problems)} value(s) differ:", file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"ok: {len(counters)} counters identical", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
