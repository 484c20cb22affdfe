#!/usr/bin/env python3
"""Apply the bounds in ``BENCHMARK.json`` to two sets of result files.

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

``A`` is the parent (or the first set of runs of one commit), ``B`` the
change (or the second set).  Result files are what ``run.py`` leaves in
``benchmarks/e2e/results/``.  One row per end-to-end metric and workload:
medians, quartiles, and a verdict —

``ok``
    ``B``'s median is no worse than ``A``'s by more than the metric's bound.
``worse``
    it is.
``unresolved``
    the quartile spread of either side is wider than the bound, so the
    runs cannot tell — unless every run of ``B`` reads better than every
    run of ``A``, which is ``ok``.
``not-comparable``
    the workload is missing or skipped on one side, or a file comes from
    the ``--tiny`` profile.

Per-layer metrics have no bound.  Their medians are listed; count-type
ones repeat exactly for one seed and one commit (every workload has a
single caller), so a seed present on both sides is checked value for value
(``same`` / ``differs``).  Exit code 1 on any ``worse`` — and, with
``--exact-counts`` (two sets of runs of the *same* commit), on any
``differs``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from harness import load_contract, quartiles, relative_spread

def load_results(paths) -> list[dict]:
    return [json.loads(Path(path).read_text(encoding="utf-8")) for path in paths]


def _values(results, workload: str, trace: int, metric: str) -> list[float]:
    return [
        r["metrics"][metric]["value"]
        for r in results
        if r["workload"] == workload and r["trace"] == trace and metric in r["metrics"]
    ]


def _is_better(candidate: float, reference: float, better: str) -> bool:
    return candidate < reference if better == "lower" else candidate > reference


def bounded_row(spec: dict, a: list[float], b: list[float], comparable: bool) -> dict:
    """Verdict for one end-to-end metric of one workload."""
    row = {"metric": spec["name"], "unit": spec["unit"], "bound": spec["bound"]}
    if not a or not b or not comparable:
        row["verdict"] = "not-comparable"
        return row
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    row.update(a=(a1, am, a3), b=(b1, bm, b3), runs=(len(a), len(b)))
    change = (bm - am) / am if am else 0.0
    row["change"] = change
    worse_by = change if spec["better"] == "lower" else -change
    spread = max(relative_spread(a), relative_spread(b))
    row["spread"] = spread
    if spread > spec["bound"]:
        clean_win = all(_is_better(y, x, spec["better"]) for x in a for y in b)
        row["verdict"] = "ok" if clean_win else "unresolved"
    elif worse_by > spec["bound"]:
        row["verdict"] = "worse"
    else:
        row["verdict"] = "ok"
    return row


def compare(contract: dict, side_a: list[dict], side_b: list[dict]) -> list[dict]:
    """All rows, end-to-end first; each carries ``workload`` and ``verdict``."""
    rows = []
    for workload in (entry["name"] for entry in contract["workloads"]):
        runs = [r for r in side_a + side_b if r["workload"] == workload]
        comparable = all(r.get("comparable", True) for r in runs)
        for spec in contract["end_to_end"]:
            row = bounded_row(
                spec,
                _values(side_a, workload, 0, spec["name"]),
                _values(side_b, workload, 0, spec["name"]),
                comparable,
            )
            row["workload"] = workload
            rows.append(row)
        for spec in contract["per_layer"]:
            a = _values(side_a, workload, 1, spec["name"])
            b = _values(side_b, workload, 1, spec["name"])
            if not a or not b or not (any(a) or any(b)):
                continue
            row = {
                "workload": workload, "metric": spec["name"], "unit": spec["unit"],
                "a": quartiles(a), "b": quartiles(b), "runs": (len(a), len(b)),
                "verdict": "info",
            }
            if spec["unit"] == "count":
                row["verdict"] = _exact_counts(side_a, side_b, workload, spec["name"])
            rows.append(row)
    return rows


def _exact_counts(side_a, side_b, workload: str, metric: str) -> str:
    """``same`` / ``differs`` over the seeds both sides ran, else ``info``."""
    def by_seed(results):
        return {
            r["seed"]: r["metrics"][metric]["value"]
            for r in results
            if r["workload"] == workload and r["trace"] == 1
            and r.get("comparable", True)
        }

    a, b = by_seed(side_a), by_seed(side_b)
    shared = set(a) & set(b)
    if not shared:
        return "info"
    return "same" if all(a[seed] == b[seed] for seed in shared) else "differs"


def format_row(row: dict) -> str:
    head = f"{row['workload']:14s} {row['metric']:32s}"
    if "a" not in row:
        return f"{head} {row['verdict']}"
    (a1, am, a3), (b1, bm, b3) = row["a"], row["b"]
    text = (
        f"{head} A {am:.6g} [{a1:.6g}, {a3:.6g}]  B {bm:.6g} [{b1:.6g}, {b3:.6g}] "
        f"{row['unit']}"
    )
    if "change" in row:
        text += (
            f"  {row['change']:+.1%} (bound {row['bound']:.0%}, "
            f"spread {row['spread']:.1%})"
        )
    return f"{text}  {row['verdict']}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", help="A... -- B...")
    parser.add_argument("--exact-counts", action="store_true",
                        help="same commit on both sides: differing counts fail")
    argv = list(sys.argv[1:] if argv is None else argv)
    if {"-h", "--help"} & set(argv):
        parser.print_help()
        return 0
    exact = "--exact-counts" in argv
    files = [a for a in argv if a != "--exact-counts"]
    if "--" not in files or files.index("--") in (0, len(files) - 1):
        parser.error("give two sets of result files: A... -- B...")
    split = files.index("--")
    rows = compare(
        load_contract(), load_results(files[:split]), load_results(files[split + 1:])
    )
    for row in rows:
        print(format_row(row))
    failing = {"worse"} | ({"differs"} if exact else set())
    bad = [row for row in rows if row["verdict"] in failing]
    print(f"{len(rows)} rows, {len(bad)} failing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
