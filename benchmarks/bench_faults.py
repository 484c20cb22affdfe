#!/usr/bin/env python
"""Fault-tolerance costs: disabled-path overhead and crash-recovery price.

Three questions, answered on the fig8-style synthetic workload:

1. **What does the fault layer cost when off?**  A microbenchmark of
   :func:`repro.faults.inject` with no plan installed (the production
   configuration), plus a serial workload run for scale — the target is
   well under 1% of query time.
2. **What does an armed-but-silent plan cost?**  The same parallel run
   with a plan installed whose specs match nothing, so every injection
   point pays the full lookup.
3. **What does recovering from a worker kill cost?**  One worker is
   killed mid-run (deterministic, single-trigger via a ledger); the
   run must finish with zero quarantined queries, results identical to
   the clean run, and the slowdown is reported as ``recovery_cost``.

Emits ``BENCH_faults.json`` at the repo root (untracked);
``--metrics-out`` writes the snapshot layout
``benchmarks/check_regression.py`` diffs.  Exits
non-zero on any parity failure or unrecovered kill, so the CI
``fault-injection`` job doubles as a correctness gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_faults.py
    PYTHONPATH=src python benchmarks/bench_faults.py --tiny   # CI smoke

Standalone script (not a pytest bench): spawn-mode workers re-import
``__main__``, which needs a real file with an ``if __name__`` guard.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ensure_importable() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(ROOT / "src"))


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--profile", default="REUTERS",
                        help="synthetic dataset profile (default REUTERS)")
    parser.add_argument("-w", "--window", type=int, default=50)
    parser.add_argument("--tau", type=int, default=5)
    parser.add_argument("--jobs", type=int, default=2,
                        help="workers for the parallel runs (default 2)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="measurement rounds per setting; best is kept")
    parser.add_argument("--inject-calls", type=int, default=200_000,
                        help="microbenchmark iterations for the disabled "
                             "inject() path")
    parser.add_argument("--start-method", default=None,
                        choices=[None, "fork", "spawn"],
                        help="multiprocessing start method (default: fork "
                             "where available)")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale (CI): tiny corpus, 1 round")
    parser.add_argument("--out", default=str(ROOT / "BENCH_faults.json"),
                        help="output JSON path (default: repo root)")
    parser.add_argument("--metrics-out", default=None,
                        help="also write a standalone repro.obs metrics "
                             "snapshot to this path (the format "
                             "benchmarks/check_regression.py diffs)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.tiny:
        # Must be set before importing benchmarks/common (reads it once).
        os.environ.setdefault("REPRO_BENCH_SCALE", "0.25")
        args.rounds = 1
        args.inject_calls = min(args.inject_calls, 50_000)
    _ensure_importable()

    from common import workload

    from repro import (
        FaultPlan,
        FaultSpec,
        ParallelExecutor,
        PKWiseSearcher,
        SearchParams,
        faults,
    )
    from repro.eval import run_searcher

    num_queries = 4 if args.tiny else 8
    data, queries, _truth = workload(args.profile, num_queries=num_queries)
    params = SearchParams(w=args.window, tau=args.tau, k_max=4)
    searcher = PKWiseSearcher(data, params)
    executor = ParallelExecutor(
        jobs=args.jobs, start_method=args.start_method, retry_backoff=0.0
    )

    print(
        f"profile={args.profile} docs={len(data)} queries={len(queries)} "
        f"w={params.w} tau={params.tau} jobs={args.jobs} "
        f"start_method={executor.start_method}",
        file=sys.stderr,
    )

    # ------------------------------------------------------------------
    # 1. Disabled path: inject() with no plan installed
    # ------------------------------------------------------------------
    faults.clear_plan()
    inject_seconds = timeit.timeit(
        lambda: faults.inject("bench.point", position=0),
        number=args.inject_calls,
    )
    inject_ns = inject_seconds / args.inject_calls * 1e9

    serial_run = min(
        (run_searcher(searcher, queries, name="faults-serial")
         for _ in range(args.rounds)),
        key=lambda run: run.total_seconds,
    )
    per_query_seconds = serial_run.total_seconds / max(1, len(queries))
    # One injection site fires per query plus one per chunk; even an
    # absurd 100 calls/query keeps the disabled layer deep below 1%.
    disabled_fraction = (
        (inject_seconds / args.inject_calls * 100) / per_query_seconds
        if per_query_seconds > 0 else 0.0
    )

    clean_run = min(
        (executor.run_workload(searcher, queries, name="faults-clean")
         for _ in range(args.rounds)),
        key=lambda run: run.total_seconds,
    )
    clean_parity = clean_run.results_by_query == serial_run.results_by_query

    # ------------------------------------------------------------------
    # 2. Armed-but-silent plan (specs never match)
    # ------------------------------------------------------------------
    faults.install_plan(
        FaultPlan(
            [
                FaultSpec(point="parallel.worker.query", kind="raise",
                          match={"position": -999}),
                FaultSpec(point="parallel.worker.chunk", kind="raise",
                          match={"chunk_index": -999}),
            ]
        )
    )
    try:
        silent_run = min(
            (executor.run_workload(searcher, queries, name="faults-silent")
             for _ in range(args.rounds)),
            key=lambda run: run.total_seconds,
        )
    finally:
        faults.clear_plan()
    silent_parity = silent_run.results_by_query == serial_run.results_by_query
    silent_overhead = (
        silent_run.total_seconds / clean_run.total_seconds - 1.0
        if clean_run.total_seconds > 0 else 0.0
    )

    # ------------------------------------------------------------------
    # 3. One worker kill, recovered
    # ------------------------------------------------------------------
    kill_position = len(queries) // 2
    with tempfile.TemporaryDirectory(prefix="bench-faults-") as ledger_dir:
        faults.install_plan(
            FaultPlan(
                [
                    FaultSpec(point="parallel.worker.query", kind="kill",
                              match={"position": kill_position},
                              max_triggers=1),
                ],
                ledger=Path(ledger_dir) / "ledger",
            )
        )
        try:
            kill_started = time.perf_counter()
            kill_run = executor.run_workload(
                searcher, queries, name="faults-kill"
            )
            kill_seconds = time.perf_counter() - kill_started
        finally:
            faults.clear_plan()
    kill_parity = kill_run.results_by_query == serial_run.results_by_query
    recovered = (
        not kill_run.failures
        and kill_run.recovery is not None
        and kill_run.recovery.pool_restarts >= 1
    )
    recovery_cost = (
        kill_seconds / clean_run.total_seconds
        if clean_run.total_seconds > 0 else 0.0
    )

    parity_ok = clean_parity and silent_parity and kill_parity
    print(
        f"inject(disabled) {inject_ns:7.1f}ns/call "
        f"(~{disabled_fraction * 100:.4f}% of a query at 100 calls/query)\n"
        f"silent plan overhead {silent_overhead * 100:+6.2f}% "
        f"(clean {clean_run.total_seconds * 1e3:.1f}ms, "
        f"silent {silent_run.total_seconds * 1e3:.1f}ms)\n"
        f"kill recovery {kill_seconds * 1e3:9.1f}ms "
        f"({recovery_cost:.2f}x clean, "
        f"restarts={kill_run.recovery.pool_restarts if kill_run.recovery else 0}, "
        f"recovered={'yes' if recovered else 'NO'})  "
        f"parity={'ok' if parity_ok else 'MISMATCH'}",
        file=sys.stderr,
    )

    record = {
        "bench": "faults",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "start_method": executor.start_method,
        },
        "config": {
            "profile": args.profile,
            "num_documents": len(data),
            "num_queries": len(queries),
            "w": params.w,
            "tau": params.tau,
            "k_max": params.k_max,
            "jobs": args.jobs,
            "rounds": args.rounds,
            "tiny": args.tiny,
        },
        "disabled": {
            "inject_ns_per_call": inject_ns,
            "inject_calls": args.inject_calls,
            "fraction_of_query_at_100_calls": disabled_fraction,
            "target": "well under 0.01 (1%) of per-query time",
        },
        "silent_plan": {
            "overhead_fraction": silent_overhead,
            "seconds": silent_run.total_seconds,
            "parity": silent_parity,
        },
        "kill_recovery": {
            "seconds": kill_seconds,
            "clean_seconds": clean_run.total_seconds,
            "recovery_cost": recovery_cost,
            "recovered": recovered,
            "quarantined": len(kill_run.failures),
            "pool_restarts": (
                kill_run.recovery.pool_restarts if kill_run.recovery else 0
            ),
            "parity": kill_parity,
            "metrics": kill_run.metrics_snapshot(),
        },
        "serial": {
            "search_seconds": serial_run.total_seconds,
            "num_results": serial_run.num_results,
            "metrics": serial_run.metrics_snapshot(),
        },
        "parallel": [
            {
                "jobs": args.jobs,
                "search_seconds": clean_run.total_seconds,
                "parity": clean_parity,
                "metrics": clean_run.metrics_snapshot(),
            }
        ],
        "parity_ok": parity_ok,
        "note": "silent-plan overhead is wall-clock noise-bound; the "
                "disabled microbenchmark is the stable overhead figure",
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)
    if args.metrics_out:
        snapshot_record = {
            "bench": record["bench"],
            "generated_at": record["generated_at"],
            "config": record["config"],
            "serial": record["serial"]["metrics"],
            "parallel": [
                {"jobs": args.jobs, "metrics": clean_run.metrics_snapshot()}
            ],
        }
        metrics_path = Path(args.metrics_out)
        metrics_path.write_text(
            json.dumps(snapshot_record, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote metrics snapshot {metrics_path}", file=sys.stderr)
    if not parity_ok:
        print("PARITY MISMATCH against the serial run", file=sys.stderr)
        return 1
    if not recovered:
        print("KILL NOT RECOVERED (failures or no pool restart)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
