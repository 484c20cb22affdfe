#!/usr/bin/env python
"""Parallel scaling: speedup of the --jobs execution engine.

Runs the fig8 query workload (synthetic REUTERS by default) serially and
at 1/2/4/8 workers through :class:`repro.ParallelExecutor`, covering all
three parallel grains — query sharding, index construction, and the
self-join — and emits a machine-readable ``BENCH_parallel.json`` at the
repo root (untracked; pass ``--out`` to write elsewhere).

Every parallel run is parity-checked against the serial result; the
process exits non-zero on any mismatch, so CI smoke runs double as
correctness checks.  Speedup is bounded by ``os.cpu_count()`` — the
host core count is recorded in the JSON so numbers from different
machines are interpretable.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py
    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py \
        --tiny --start-method spawn --jobs 1,2   # CI smoke

This is a standalone script (not a pytest bench): the spawn start
method re-imports ``__main__`` in every worker, which only works for a
real file with an ``if __name__`` guard.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
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
    parser.add_argument("--jobs", default="1,2,4,8",
                        help="comma-separated worker counts (default 1,2,4,8)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="measurement rounds per setting; best is kept")
    parser.add_argument("--selfjoin-docs", type=int, default=12,
                        help="documents in the self-join subset")
    parser.add_argument("--start-method", default=None,
                        choices=[None, "fork", "spawn"],
                        help="multiprocessing start method (default: fork "
                             "where available)")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale (CI): tiny corpus, 1 round")
    parser.add_argument("--out", default=str(ROOT / "BENCH_parallel.json"),
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
        args.selfjoin_docs = min(args.selfjoin_docs, 6)
    _ensure_importable()

    from common import workload

    from repro import ParallelExecutor, PKWiseSearcher, SearchParams
    from repro.core.selfjoin import local_similarity_self_join
    from repro.eval import run_searcher

    jobs_list = [int(part) for part in args.jobs.split(",") if part]
    num_queries = 4 if args.tiny else 8
    data, queries, _truth = workload(args.profile, num_queries=num_queries)
    params = SearchParams(w=args.window, tau=args.tau, k_max=4)
    executor_probe = ParallelExecutor(jobs=1, start_method=args.start_method)

    print(
        f"profile={args.profile} docs={len(data)} queries={len(queries)} "
        f"w={params.w} tau={params.tau} cpus={os.cpu_count()} "
        f"start_method={executor_probe.start_method}",
        file=sys.stderr,
    )

    # ------------------------------------------------------------------
    # Serial reference
    # ------------------------------------------------------------------
    serial_searcher = PKWiseSearcher(data, params)
    serial_build_seconds = serial_searcher.index_build_seconds
    serial_run = min(
        (run_searcher(serial_searcher, queries, name="pkwise-serial")
         for _ in range(args.rounds)),
        key=lambda run: run.total_seconds,
    )
    join_data = data.subset(range(min(args.selfjoin_docs, len(data))))
    join_started = time.perf_counter()
    serial_join = local_similarity_self_join(
        join_data, params, exclude_same_document_within=params.w
    )
    serial_join_seconds = time.perf_counter() - join_started

    # ------------------------------------------------------------------
    # Parallel sweeps
    # ------------------------------------------------------------------
    rows = []
    parity_ok = True
    for jobs in jobs_list:
        executor = ParallelExecutor(jobs=jobs, start_method=args.start_method)

        best_run = min(
            (executor.run_workload(serial_searcher, queries, name=f"pkwise-j{jobs}")
             for _ in range(args.rounds)),
            key=lambda run: run.total_seconds,
        )
        search_parity = best_run.results_by_query == serial_run.results_by_query

        parallel_searcher = executor.build_searcher(data, params)
        build_seconds = parallel_searcher.index_build_seconds
        build_parity = (
            parallel_searcher.index._postings == serial_searcher.index._postings
        )

        join_started = time.perf_counter()
        parallel_join = executor.self_join(
            join_data,
            params,
            exclude_same_document_within=params.w,
            searcher=executor.build_searcher(join_data, params),
        )
        join_seconds = time.perf_counter() - join_started
        join_parity = parallel_join == serial_join

        parity_ok = parity_ok and search_parity and build_parity and join_parity
        rows.append(
            {
                "jobs": jobs,
                "search_seconds": best_run.total_seconds,
                "search_speedup": serial_run.total_seconds / best_run.total_seconds
                if best_run.total_seconds > 0 else 0.0,
                "search_parity": search_parity,
                "worker_skew": best_run.worker_skew,
                "workers_used": best_run.jobs,
                "build_seconds": build_seconds,
                "build_speedup": serial_build_seconds / build_seconds
                if build_seconds > 0 else 0.0,
                "build_parity": build_parity,
                "selfjoin_seconds": join_seconds,
                "selfjoin_speedup": serial_join_seconds / join_seconds
                if join_seconds > 0 else 0.0,
                "selfjoin_parity": join_parity,
                "run": best_run.to_dict(),
                "metrics": best_run.metrics_snapshot(),
            }
        )
        print(
            f"jobs={jobs:<3} search {best_run.total_seconds * 1e3:9.1f}ms "
            f"({rows[-1]['search_speedup']:4.2f}x, skew "
            f"{best_run.worker_skew:4.2f})  build "
            f"{build_seconds * 1e3:9.1f}ms ({rows[-1]['build_speedup']:4.2f}x)  "
            f"selfjoin {join_seconds * 1e3:9.1f}ms "
            f"({rows[-1]['selfjoin_speedup']:4.2f}x)  "
            f"parity={'ok' if search_parity and build_parity and join_parity else 'MISMATCH'}",
            file=sys.stderr,
        )

    record = {
        "bench": "parallel_scaling",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "start_method": executor_probe.start_method,
        },
        "config": {
            "profile": args.profile,
            "num_documents": len(data),
            "num_queries": len(queries),
            "w": params.w,
            "tau": params.tau,
            "k_max": params.k_max,
            "rounds": args.rounds,
            "tiny": args.tiny,
            "selfjoin_docs": len(join_data),
        },
        "serial": {
            "search_seconds": serial_run.total_seconds,
            "build_seconds": serial_build_seconds,
            "selfjoin_seconds": serial_join_seconds,
            "num_results": serial_run.num_results,
            "run": serial_run.to_dict(),
            "metrics": serial_run.metrics_snapshot(),
        },
        "parallel": rows,
        "max_search_speedup": max(
            (row["search_speedup"] for row in rows), default=0.0
        ),
        "parity_ok": parity_ok,
        "note": "speedup is bounded by host cpus; see host.cpus",
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)
    if args.metrics_out:
        # The standalone snapshot record: exactly the sections
        # check_regression.py compares (config for comparability,
        # counters for correctness drift, timers within tolerance).
        snapshot_record = {
            "bench": record["bench"],
            "generated_at": record["generated_at"],
            "config": record["config"],
            "serial": record["serial"]["metrics"],
            "parallel": [
                {"jobs": row["jobs"], "metrics": row["metrics"]} for row in rows
            ],
        }
        metrics_path = Path(args.metrics_out)
        metrics_path.write_text(
            json.dumps(snapshot_record, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote metrics snapshot {metrics_path}", file=sys.stderr)
    if not parity_ok:
        print("PARITY MISMATCH between serial and parallel runs", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
