#!/usr/bin/env python3
"""One end-to-end benchmark with a layer budget.

Driver form (the contract in ``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

generates every input from the seed, sets the system up (three times; the
median is ``setup_s``), warms it, measures for about ``S`` seconds, checks
every reply against ``oracle.py``, prints every metric by name with its
unit and, as the last line, one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` reports the end-to-end metrics,
measured with tracing off; ``--trace 1`` reports the per-layer metrics
from an untraced pass and a traced pass over a fixed number of operations.

Without ``--workload`` every workload runs in turn, each in its own
process (so ``peak_rss_mb`` is per workload); with ``--trace`` each runs
twice, untraced then traced, and the cost-model cross-check is printed.

Exit codes: 0 correct; 1 a reply was wrong or failed; 2 no ``src/repro``
next to the benchmark; 3 skipped (``serve-sharded`` on one core); 4 a
trace target is gone; 5 the oracle disagrees with brute force.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager

from harness import (
    HERE,
    RESULTS,
    calibrate,
    environment,
    load_contract,
    percentile,
    require_repo,
    slowdown,
)

EXIT_WRONG, EXIT_SKIPPED, EXIT_TRACE_TARGET, EXIT_ANCHOR = 1, 3, 4, 5

#: Eq. 2-4 weights from the paper's Section 7.1 (c_comb, c_int, c_hash).
PAPER_WEIGHTS = (10.0, 2.0, 1.0)
TIMED_KINDS = ("query", "request", "add", "remove")
STAT_COUNTERS = (
    "signature_tokens", "signatures_generated", "postings_entries",
    "probe_batches", "probe_signatures", "hash_ops", "candidate_windows",
    "num_results", "shared_windows", "changed_windows",
    "routing_checked_docs", "routing_pruned_docs",
)
STAT_TIMERS = ("signature_time", "candidate_time", "verify_time",
               "routing_fingerprint_time")


class AnchorMismatch(RuntimeError):
    """The oracle disagrees with brute force, the dict index or ground truth."""


# ----------------------------------------------------------------------
# Set-up timing
# ----------------------------------------------------------------------
class StageClock:
    """Times named set-up stages, each bracketed by calibrations."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.raw: dict[str, float] = {}
        self.norm: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str, in_process: bool = True):
        """``in_process=False``: the stage waits on other processes, so
        the speed of a loop in this one says nothing about it."""
        before = calibrate()
        start = time.perf_counter()
        if self.tracer is not None:
            self.tracer.push(name)
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.pop()
            elapsed = time.perf_counter() - start
            factor = slowdown(before, calibrate()) if in_process else 1.0
            self.raw[name] = self.raw.get(name, 0.0) + elapsed
            self.norm[name] = self.norm.get(name, 0.0) + elapsed / factor

    def total(self, normalised: bool = True) -> float:
        return sum((self.norm if normalised else self.raw).values())


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def anchor_oracle(workload) -> dict:
    """Check the oracle itself before trusting it with every reply."""
    from repro.baselines.bruteforce import BruteForceSearcher
    from repro.corpus import Document
    from repro.corpus.plagiarism import ObfuscationLevel
    from repro.routing import RoutingPolicy

    import random

    oracle, data = workload.oracle, workload.data
    report = {"bruteforce_pairs": 0, "dict_index_queries": 0, "verbatim_cases": 0}

    # 1. brute force, on a seeded 6-document subsample holding one donor.
    verbatim = [t for t in workload.truth if t.level is ObfuscationLevel.NONE]
    truth = (verbatim or workload.truth)[0]
    rng = random.Random(workload.seed)
    ids = sorted({truth.data_doc_id, *rng.sample(range(len(data)), min(5, len(data)))})
    tokens = workload.query_tokens[truth.query_id]
    brute = BruteForceSearcher(data.subset(ids), workload.params())
    got = sorted(
        (ids[p.doc_id], p.data_start, p.query_start, p.overlap)
        for p in brute.search(Document(-1, tokens, name="anchor")).pairs
    )
    want = [pair for pair in oracle.expected(tokens) if pair[0] in set(ids)]
    if got != want:
        raise AnchorMismatch(
            f"oracle disagrees with baselines/bruteforce.py on documents {ids}: "
            f"{len(want)} vs {len(got)} pairs"
        )
    report["bruteforce_pairs"] = len(got)

    # 2. the engine's own dict index, routing off, where set-up kept one.
    built = getattr(workload, "built", None)
    if built is not None:
        searcher = built.searcher()
        for tokens in workload.anchor_queries():
            result = searcher.search(
                Document(-1, tokens, name="anchor"), routing=RoutingPolicy(mode="off")
            )
            if sorted(tuple(p) for p in result.pairs) != oracle.expected(tokens):
                raise AnchorMismatch("oracle disagrees with the routing-off dict index")
            report["dict_index_queries"] += 1

    # 3. every verbatim (obfuscation none) case of corpus/plagiarism.py
    #    ground truth is recovered, window for window at its first offset.
    for truth in verbatim:
        tokens = workload.query_tokens[truth.query_id]
        first = (truth.data_doc_id, truth.data_span[0], truth.query_span[0], workload.oracle.w)
        if first not in oracle.expected(tokens):
            raise AnchorMismatch(f"ground-truth case {truth} not recovered by the oracle")
        report["verbatim_cases"] += 1
    return report


def check_replies(workload, ops) -> tuple[int, int, list[str]]:
    """``(attempted, failed, first failures)``: every reply, pair for pair."""
    attempted = failed = 0
    failures: list[str] = []
    for op in ops:
        attempted += 1
        problem = op.error
        if problem is None and op.pairs is not None:
            expected = workload.expected(op)
            if op.pairs != expected:
                problem = (
                    f"{len(op.pairs)} pairs returned, {len(expected)} expected"
                )
        if problem is not None:
            failed += 1
            if len(failures) < 10:
                failures.append(f"{op.kind} {op.key}: {problem}")
    return attempted, failed, failures


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def timed(ops, kinds=TIMED_KINDS):
    return [op for op in ops if op.kind in kinds]


def busy_seconds(ops, normalised: bool = True) -> float:
    """Time the one caller spent waiting for replies."""
    return sum((op.norm if normalised else op.raw) for op in timed(ops))


def latency_ms(ops, fraction: float, normalised: bool = True) -> float:
    return 1e3 * percentile(
        [(op.norm if normalised else op.raw) for op in ops], fraction
    )


def end_to_end(workload, ops, setups, normalised: bool = True) -> dict:
    operations = timed(ops)
    return {
        "setup_s": statistics.median(clock.total(normalised) for clock in setups),
        "op_latency_p50_ms": latency_ms(operations, 0.5, normalised),
        "op_latency_p90_ms": latency_ms(operations, 0.9, normalised),
        "ops_per_s": len(operations) / busy_seconds(ops, normalised),
        "index_bytes_per_token": workload.index_bytes() / workload.corpus_tokens(),
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def op_class_metrics(ops, attempted: int, failed: int) -> dict:
    """The per-operation-type numbers (zero where a type does not occur)."""
    out = {}
    queries = timed(ops, ("query",))
    requests = timed(ops, ("request",))
    hits = [op for op in requests if op.cached]
    misses = [op for op in requests if op.cached is False]
    adds = timed(ops, ("add",))
    writes = timed(ops, ("add", "remove"))
    out["query_latency_p50_ms"] = latency_ms(queries, 0.5) if queries else 0.0
    out["query_latency_p90_ms"] = latency_ms(queries, 0.9) if queries else 0.0
    if requests:
        out["queries_per_s"] = len(requests) / busy_seconds(ops)
    elif queries:
        out["queries_per_s"] = len(queries) / sum(op.norm for op in queries)
    else:
        out["queries_per_s"] = 0.0
    out["hit_latency_p50_ms"] = latency_ms(hits, 0.5) if hits else 0.0
    out["miss_latency_p50_ms"] = latency_ms(misses, 0.5) if misses else 0.0
    out["add_latency_p50_ms"] = latency_ms(adds, 0.5) if adds else 0.0
    out["add_latency_p90_ms"] = latency_ms(adds, 0.9) if adds else 0.0
    out["adds_per_s"] = len(adds) / sum(op.norm for op in writes) if adds else 0.0
    out["error_rate"] = failed / attempted if attempted else 0.0
    return out


def sum_stats(ops) -> dict:
    total = dict.fromkeys(STAT_COUNTERS + STAT_TIMERS, 0)
    for op in ops:
        if op.stats is not None:
            for name in total:
                total[name] += getattr(op.stats, name)
    return total


def diff_registry(before: dict, after: dict) -> dict:
    """Counter and timer deltas of two ``metrics_snapshot()['metrics']``."""
    delta = {}
    for family in ("counters", "timers"):
        for name, value in after.get(family, {}).items():
            delta[name] = value - before.get(family, {}).get(name, 0)
    return delta


def engine_metrics(stats: dict, out: dict) -> None:
    """Counts and cost-model shares from summed ``SearchResult.stats``."""
    out["routing.checked_docs"] = stats["routing_checked_docs"]
    out["routing.pruned_docs"] = stats["routing_pruned_docs"]
    if stats["routing_checked_docs"]:
        out["routing.pruned_ratio"] = (
            stats["routing_pruned_docs"] / stats["routing_checked_docs"]
        )
    out["signatures.generated"] = stats["signatures_generated"]
    out["signatures.tokens"] = stats["signature_tokens"]
    windows = stats["shared_windows"] + stats["changed_windows"]
    if windows:
        out["signatures.shared_window_ratio"] = stats["shared_windows"] / windows
    out["index.probe_batches"] = stats["probe_batches"]
    out["index.probe_signatures"] = stats["probe_signatures"]
    out["index.postings_entries"] = stats["postings_entries"]
    out["core.candidate_windows"] = stats["candidate_windows"]
    out["core.hash_ops"] = stats["hash_ops"]
    out["core.results"] = stats["num_results"]
    if stats["candidate_windows"]:
        out["core.verify_useful_ratio"] = (
            stats["num_results"] / stats["candidate_windows"]
        )
    model = model_shares(stats, PAPER_WEIGHTS)
    for phase, share in model.items():
        out[f"partition.model_{phase}_share"] = share
    measured = (stats["signature_time"], stats["candidate_time"], stats["verify_time"])
    if sum(measured) > 0:
        for phase, seconds in zip(("signature", "candidate", "verify"), measured):
            out[f"partition.measured_{phase}_share"] = seconds / sum(measured)


def model_shares(stats: dict, weights) -> dict:
    """Eq. 2-4: weighted operation counts as shares of their sum."""
    costs = (
        weights[0] * stats["signature_tokens"],
        weights[1] * stats["postings_entries"],
        weights[2] * stats["hash_ops"],
    )
    total = sum(costs)
    return {
        phase: (cost / total if total else 0.0)
        for phase, cost in zip(("signature", "candidate", "verify"), costs)
    }


def fitted_weights(stats: dict) -> tuple[float, float, float]:
    """Per-operation costs as ``calibrated_weights`` derives them (c_hash = 1)."""
    c_comb = stats["signature_time"] / max(1, stats["signature_tokens"])
    c_int = stats["candidate_time"] / max(1, stats["postings_entries"])
    c_hash = stats["verify_time"] / max(1, stats["hash_ops"])
    if c_hash <= 0:
        return PAPER_WEIGHTS
    return (max(1e-6, c_comb / c_hash), max(1e-6, c_int / c_hash), 1.0)


def span_metrics(setup_tracer, op_tracer, setup_scale: float, op_scale: float, out: dict) -> None:
    """Layer self-times: which span names feed which metric, and from which phase."""
    setup, ops = setup_tracer.self_seconds, op_tracer.self_seconds

    def both(name):
        return setup.get(name, 0.0) * setup_scale + ops.get(name, 0.0) * op_scale

    out["tokenize.encode_s"] = ops.get("tokenize.encode", 0.0) * op_scale
    out["ordering.rank_s"] = ops.get("ordering.rank", 0.0) * op_scale
    out["ordering.build_s"] = (
        setup.get("ordering.build", 0.0) + setup.get("ordering.rank", 0.0)
    ) * setup_scale
    out["routing.survivors_s"] = ops.get("routing.survivors", 0.0) * op_scale
    out["routing.fingerprint_build_s"] = both("routing.fingerprint_build")
    out["signatures.stream_s"] = ops.get("signatures.stream", 0.0) * op_scale
    out["signatures.build_stream_s"] = setup.get("signatures.stream", 0.0) * setup_scale
    out["index.build_s"] = both("index.build")
    out["index.compact_s"] = both("index.compact")
    out["index.probe_s"] = ops.get("index.probe", 0.0) * op_scale
    out["index.merge_s"] = ops.get("index.merge", 0.0) * op_scale
    out["index.rankdocs_decode_s"] = ops.get("index.rankdocs_decode", 0.0) * op_scale
    out["index.rankdocs_decode_calls"] = op_tracer.calls.get("index.rankdocs_decode", 0)
    out["core.search_s"] = op_tracer.total_seconds.get("core.search", 0.0) * op_scale
    out["core.search_self_s"] = ops.get("core.search", 0.0) * op_scale
    out["core.verify_s"] = (
        ops.get("core.verify", 0.0) + ops.get("core.verify_advance", 0.0)
    ) * op_scale
    out["core.verify_calls"] = op_tracer.calls.get("core.verify", 0)
    roots = op_tracer.total_root_seconds() * op_scale
    if roots:
        out["core.verify_share"] = out["core.verify_s"] / roots
    out["persistence.save_s"] = both("persistence.save")
    out["persistence.open_s"] = both("persistence.open")
    out["ingest.add_s"] = op_tracer.root_seconds.get("op.add", 0.0) * op_scale
    out["ingest.wal_append_s"] = ops.get("ingest.wal_append", 0.0) * op_scale
    out["ingest.memtable_add_s"] = ops.get("ingest.memtable_add", 0.0) * op_scale
    out["ingest.flush_s"] = ops.get("ingest.flush", 0.0) * op_scale
    out["ingest.compact_s"] = ops.get("ingest.compact", 0.0) * op_scale
    out["ingest.flush_stall_max_ms"] = 1e3 * op_scale * max(
        op_tracer.max_seconds.get("ingest.flush", 0.0),
        op_tracer.max_seconds.get("ingest.compact", 0.0),
    )
    out["ingest.reopen_s"] = op_tracer.root_seconds.get("op.reopen", 0.0) * op_scale


def serve_metrics(workload, ops, delta: dict, shard_deltas: list[dict], out: dict) -> None:
    requests = timed(ops, ("request",))
    overhead = [
        op.raw - op.server_seconds for op in requests if op.server_seconds is not None
    ]
    out["service.http_overhead_ms_p50"] = 1e3 * percentile(overhead, 0.5)
    out["service.request_s"] = delta.get("service.request_seconds", 0.0)
    out["service.queue_wait_s"] = delta.get("service.queue_wait_seconds", 0.0)
    lookups = delta.get("service.cache_hits", 0) + delta.get("service.cache_misses", 0)
    if lookups:
        out["service.cache_hit_ratio"] = delta.get("service.cache_hits", 0) / lookups
    out["service.cache_evictions"] = delta.get("service.cache_evictions", 0)
    out["service.rejected"] = delta.get("service.rejected", 0)
    out["service.errors"] = delta.get("service.errors", 0)
    out["shards.router_s"] = delta.get("router.request_seconds", 0.0)
    per_shard = [d.get("service.request_seconds", 0.0) for d in shard_deltas]
    mean_shard = sum(per_shard) / len(per_shard) if per_shard else 0.0
    out["shards.router_overhead_s"] = out["shards.router_s"] - mean_shard
    if mean_shard:
        out["shards.worker_skew"] = max(per_shard) / mean_shard
    out["shards.partial_responses"] = delta.get("router.partial_responses", 0)
    out["shards.failovers"] = delta.get("router.failovers", 0)
    out["shards.hedges"] = delta.get("router.hedges", 0)
    out["shards.replica_failures"] = delta.get("router.replica_failures", 0)


def ingest_metrics(workload, out: dict) -> None:
    info = workload.round_info[-1]
    counters = info["store_metrics"]["counters"]
    gauges = info["store_metrics"]["gauges"]
    out["ingest.flushes"] = counters.get("ingest.flushes", 0)
    out["ingest.compactions"] = counters.get("ingest.compactions", 0)
    out["ingest.wal_records"] = counters.get("ingest.wal_records", 0)
    out["ingest.wal_replayed"] = info["reopened_metrics"]["counters"].get(
        "ingest.wal_replayed", 0
    )
    out["ingest.segments_final"] = gauges.get("ingest.segments", 0)
    lookups = counters.get("ingest.segment_cache_hits", 0) + counters.get(
        "ingest.segment_cache_misses", 0
    )
    if lookups:
        out["ingest.segment_cache_hit_ratio"] = (
            counters.get("ingest.segment_cache_hits", 0) / lookups
        )
    if workload.written_bytes:
        out["ingest.write_amplification"] = (
            workload.written_bytes / workload.user_text_bytes()
        )


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_workload(args, contract) -> int:
    require_repo()
    from tracing import Tracer, TraceTargetMissing
    from workloads import PROFILES, make_workload

    profile = PROFILES["tiny" if args.tiny else "default"]
    if args.workload == "serve-sharded" and (os.cpu_count() or 1) < 2:
        print("skipped: serve-sharded needs 2 cores (a miss runs in both shard "
              f"processes at once); this host has {os.cpu_count()}", file=sys.stderr)
        return EXIT_SKIPPED

    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS)
    workload = make_workload(args.workload, profile, args.seed, workdir)
    started = time.time()
    try:
        if args.trace:
            outcome = _traced_run(workload, args, profile, Tracer)
        else:
            outcome = _untraced_run(workload, args, profile)
    except TraceTargetMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRACE_TARGET
    except AnchorMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANCHOR
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    names = contract["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in names}
    metrics = outcome.pop("metrics")
    unknown = set(metrics) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    payload = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": int(args.trace), "profile": profile.name,
        "comparable": profile.comparable, "environment": environment(),
        "serve_command": workload.serve_command,
        "wall_seconds": time.time() - started,
        **payload, **outcome,
    }
    suffix = "-tiny" if args.tiny else ""
    target = RESULTS / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}{suffix}.json"
    for path in filter(None, (target, args.out)):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)

    print(f"# {args.workload} seed={args.seed} profile={profile.name}"
          f"{'' if profile.comparable else ' (NOT comparable)'} "
          f"samples={outcome['samples']} slowdown={outcome['host_slowdown']:.2f}")
    for name, entry in payload["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    for failure in outcome["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(payload))
    return 0 if payload["correct"] else EXIT_WRONG


def _setups(workload, profile, tracer=None, repeats=None) -> list[StageClock]:
    clocks = []
    for _ in range(repeats or profile.setup_repeats):
        clock = StageClock(tracer)
        workload.setup(clock.stage)
        clocks.append(clock)
    return clocks


def _host_slowdown(ops) -> float:
    pairs = [(op.raw, op.norm) for op in ops if op.norm > 0]
    return sum(r for r, _ in pairs) / sum(n for _, n in pairs) if pairs else 1.0


def _thirds(ops) -> list[float]:
    """Median latency of each third of the window, to show drift inside a run."""
    operations = sorted(timed(ops), key=lambda op: op.start)
    size = max(1, len(operations) // 3)
    return [
        latency_ms(operations[i:i + size], 0.5)
        for i in range(0, size * 3, size) if operations[i:i + size]
    ]


def _untraced_run(workload, args, profile) -> dict:
    setups = _setups(workload, profile)
    anchors = anchor_oracle(workload)
    workload.warmup()
    ops = workload.measure(seconds=args.seconds)
    attempted, failed, failures = check_replies(workload, ops)
    workload.close()  # server processes must have ended before RSS is read
    return {
        "metrics": end_to_end(workload, ops, setups),
        "raw_metrics": end_to_end(workload, ops, setups, normalised=False),
        "attempted": attempted, "failed": failed, "failures": failures,
        "samples": len(timed(ops)), "host_slowdown": _host_slowdown(ops),
        "window_thirds_p50_ms": _thirds(ops),
        "setup_stages": [{"raw": c.raw, "normalised": c.norm} for c in setups],
        "anchors": anchors,
    }


def _traced_run(workload, args, profile, tracer_class) -> dict:
    setup_tracer, op_tracer = tracer_class(), tracer_class()
    setup_tracer.install()
    try:
        with setup_tracer.root("setup", "setup"):
            setup = _setups(workload, profile, setup_tracer, repeats=1)[0]
    finally:
        setup_tracer.uninstall()
    anchors = anchor_oracle(workload)
    workload.warmup()
    count = workload.trace_ops(args.seconds)
    served = workload.name == "serve-sharded"

    before = workload.metrics() if served else None
    plain = workload.measure(max_ops=count)
    after = workload.metrics() if served else None
    if served:
        # Nothing to wrap in another process: the client records a span
        # per request either way, so the one pass is both passes.
        traced = plain
    else:
        op_tracer.install()
        try:
            traced = workload.measure(max_ops=count, tracer=op_tracer)
        finally:
            op_tracer.uninstall()
    attempted, failed, failures = check_replies(
        workload, plain if served else plain + traced
    )

    metrics: dict = {}
    op_scale = 1.0 / _host_slowdown(traced)
    setup_scale = setup.total() / setup.total(False)
    span_metrics(setup_tracer, op_tracer, setup_scale, op_scale, metrics)
    # Whole stages (children included), so not part of the self-time sum.
    for stage in ("service.spawn", "shards.plan_build", "ingest.bootstrap"):
        metrics[f"{stage}_s"] = setup.norm.get(stage, 0.0)
    if served:
        delta = diff_registry(before["merged"], after["merged"])
        shard_deltas = [
            diff_registry(b, a) for b, a in zip(before["shards"], after["shards"])
        ]
        stats = {name: delta.get(name, 0) for name in STAT_COUNTERS + STAT_TIMERS}
        serve_metrics(workload, plain, delta, shard_deltas, metrics)
    else:
        stats, again = sum_stats(plain), sum_stats(traced)
        if any(stats[name] != again[name] for name in STAT_COUNTERS):
            failures.append("counts differ between the untraced and the traced pass")
            failed += 1
    engine_metrics(stats, metrics)
    if workload.name == "ingest-mixed":
        ingest_metrics(workload, metrics)
    metrics["persistence.snapshot_bytes"] = workload.index_bytes()
    metrics["trace.overhead_ratio"] = busy_seconds(traced) / busy_seconds(plain)
    metrics.update(op_class_metrics(plain, attempted, failed))

    spans_path = RESULTS / f"trace-{workload.name}{'-tiny' if args.tiny else ''}.jsonl"
    _write_spans(spans_path, setup_tracer, op_tracer, plain if served else ())
    return {
        "metrics": metrics,
        "attempted": attempted, "failed": failed, "failures": failures,
        "samples": len(timed(plain)), "host_slowdown": _host_slowdown(plain),
        "trace_ops": count, "spans_file": spans_path.name,
        "span_self_seconds": op_tracer.total_self_seconds() + setup_tracer.total_self_seconds(),
        "span_root_seconds": op_tracer.total_root_seconds() + setup_tracer.total_root_seconds(),
        "layer_self_seconds": dict(op_tracer.self_seconds),
        "op_root_seconds": dict(op_tracer.root_seconds),
        "setup_stages": [{"raw": setup.raw, "normalised": setup.norm}],
        "cost_model": stats, "anchors": anchors,
    }


def _write_spans(path, setup_tracer, op_tracer, client_ops) -> None:
    """One span per line; ids are made unique across the two tracers."""
    setup_tracer.write_jsonl(path)
    offset = setup_tracer.next_id
    with open(path, "a", encoding="utf-8") as handle:
        for sid, parent, *rest in op_tracer.spans:
            handle.write(json.dumps(
                [sid + offset, parent + offset if parent >= 0 else -1, *rest]))
            handle.write("\n")
        offset += op_tracer.next_id
        for index, op in enumerate(timed(client_ops, ("request",))):
            handle.write(json.dumps(
                [offset + index, -1, index, "client.request",
                 op.start, op.start + op.raw, 1, op.raw]))
            handle.write("\n")


# ----------------------------------------------------------------------
# Every workload
# ----------------------------------------------------------------------
def run_all(args, contract) -> int:
    """Each workload in its own process; the traced pass after the plain one."""
    worst = 0
    results: dict[tuple[str, int], dict] = {}
    for entry in contract["workloads"]:
        for trace in ((0, 1) if args.trace else (0,)):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", entry["name"],
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ] + (["--tiny"] if args.tiny else [])
            print(f"## {' '.join(command[2:])}", flush=True)
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            print(done.stdout, end="", flush=True)
            if done.returncode == EXIT_SKIPPED:
                continue
            worst = max(worst, done.returncode)
            if done.returncode in (0, EXIT_WRONG):
                suffix = "-tiny" if args.tiny else ""
                path = RESULTS / f"{entry['name']}-seed{args.seed}-trace{trace}{suffix}.json"
                results[(entry["name"], trace)] = json.loads(path.read_text())
    if args.trace:
        print_cost_model(results)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({f"{name}:trace{trace}": record
                       for (name, trace), record in results.items()},
                      handle, indent=1, sort_keys=True)
    return worst


def print_cost_model(results) -> None:
    """Measured phase shares next to Eq. 2-4, in and out of sample.

    The calibrated weights are fitted on the *other* search workload, so
    the calibrated column is a prediction, not a fit.
    """
    pairs = {"search-reuse": "search-routed", "search-routed": "search-reuse"}
    print("## cost model (Eq. 2-4): share of signature / candidate / verify")
    for name, other in pairs.items():
        mine, theirs = results.get((name, 1)), results.get((other, 1))
        if mine is None or theirs is None:
            continue
        stats = mine["cost_model"]
        measured = [stats["signature_time"], stats["candidate_time"], stats["verify_time"]]
        total = sum(measured) or 1.0
        rows = {
            "measured": [m / total for m in measured],
            "paper (10,2,1)": list(model_shares(stats, PAPER_WEIGHTS).values()),
            f"calibrated on {other}": list(
                model_shares(stats, fitted_weights(theirs["cost_model"])).values()
            ),
        }
        for label, shares in rows.items():
            print(f"{name:14s} {label:28s} "
                  + " / ".join(f"{share:.3f}" for share in shares))


def main(argv=None) -> int:
    contract = load_contract()
    names = [entry["name"] for entry in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"],
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics from a traced pass")
    parser.add_argument("--out", default=None, help="also write the result JSON here")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes; output is not comparable")
    args = parser.parse_args(argv)
    if args.workload is None:
        require_repo()
        return run_all(args, contract)
    return run_workload(args, contract)


if __name__ == "__main__":
    sys.exit(main())
