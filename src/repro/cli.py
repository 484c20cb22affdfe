"""Command-line interface: index a corpus, search for local reuse.

Six subcommands:

* ``repro index``  — tokenize a directory of ``.txt`` files, build the
  pkwise interval index (optionally with greedy partitioning), and save
  it to a file.
* ``repro ingest`` — stream documents into a durable LSM ingest
  directory (write-ahead log + memtable + compact segments); killing
  the process mid-stream loses nothing, the next open replays the WAL.
* ``repro search`` — load an index and report reused passages between a
  query file and the corpus.
* ``repro selfjoin`` — find replication *within* a directory of files.
* ``repro serve``  — load an index and serve concurrent queries over
  HTTP (``/search``, ``/healthz``, ``/metrics``) through
  :class:`~repro.service.SearchService`; ``--live`` serves an ingest
  directory with mutation endpoints (``POST /ingest``, ``/remove``)
  and a background compactor.
* ``repro query``  — send one query to a running ``repro serve``.

Examples::

    repro index  --data corpus/ --out corpus.idx -w 25 --tau 5
    repro ingest --dir corpus.lsm --data corpus/ -w 25 --tau 5
    repro search --index corpus.idx --query suspicious.txt
    repro selfjoin --data corpus/ -w 25 --tau 5
    repro serve  --index corpus.idx --port 8080
    repro serve  --index corpus.lsm --live --port 8080
    repro query  --server http://127.0.0.1:8080 --text "some passage"

``repro search`` and ``repro selfjoin`` take ``--jobs N`` to spread
the queries or probe documents over ``N`` worker processes (``--jobs
0`` = one per CPU); results are identical to single-process runs.
``repro index`` builds in-process.  Observability flags (on every
subcommand but ``query``):
``--trace FILE`` appends JSON-lines span events from
:mod:`repro.obs`, ``--metrics-out FILE`` writes a structured metrics
snapshot whose counters are identical across ``--jobs`` settings, and
``--faults FILE`` installs a deterministic fault-injection plan
(:mod:`repro.faults`, testing only).

Robustness surfaces: ``repro search``/``repro selfjoin`` take
``--checkpoint FILE`` (+ ``--resume``) to survive interruption,
``repro index --rotate N`` keeps rotated snapshot generations, and
``repro query --retries/--timeout`` drives the retrying
:class:`~repro.service.ResilientClient`.

Snapshots: ``repro index`` writes the one array-backed snapshot
layout, and ``repro search``/``repro serve`` accept ``--mmap`` to map
its columns zero-copy instead of reading them into memory (fast cold
start; results are identical).  Files written by pre-2.0 releases are
not read — rebuild them with ``repro index``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

from .api import Index
from .core.selfjoin import local_similarity_self_join
from .corpus import collection_from_directory
from .corpus.loaders import text_files
from .errors import ConfigurationError, ReproError
from .obs import MetricsRegistry, configure_tracing, disable_tracing
from .params import DEFAULT_K_MAX, DEFAULT_TAU, DEFAULT_W, SearchParams
from .postprocess import filter_passages, merge_passages
from .routing import ROUTING_MODES, RoutingPolicy


def _add_search_params(parser: argparse.ArgumentParser) -> None:
    """No argparse defaults: ``repro ingest`` must tell "not given"
    from a value when it resumes; :func:`_params_from_args` fills them."""
    parser.add_argument("-w", "--window", type=int, default=None,
                        help=f"window size in tokens (default {DEFAULT_W})")
    parser.add_argument("--tau", type=int, default=None,
                        help="max differing tokens per window pair "
                             f"(default {DEFAULT_TAU})")
    parser.add_argument("--k-max", type=int, default=None,
                        help=f"number of signature classes (default {DEFAULT_K_MAX})")
    parser.add_argument("-m", "--sub-partitions", type=int, default=None,
                        help="sub-partitions per class (default: paper rule)")


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="worker processes (0 = one per CPU; default 1)")


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="append JSON-lines span trace events to FILE")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write a structured metrics snapshot (JSON) to FILE")
    parser.add_argument("--faults", metavar="FILE", default=None,
                        help="install a deterministic fault-injection plan "
                             "from a JSON file (testing only)")


def _write_metrics(path: str, payload: dict) -> None:
    """Write one metrics snapshot as indented JSON."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote metrics snapshot to {path}", file=sys.stderr)


def _add_routing_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--routing", choices=ROUTING_MODES, default=None,
                        help="fingerprint routing tier: 'exact' prunes "
                             "documents without losing any pair "
                             "(default: the index's stored policy)")


def _add_routing_layout_flag(parser: argparse.ArgumentParser) -> None:
    """Only for the commands that write fingerprints: layout is decided
    there, and every other command takes routing as a mode."""
    parser.add_argument("--routing-block", type=int, default=None,
                        help="tokens per fingerprint block (default 128; "
                             "alone it implies --routing exact)")


def _params_from_args(args: argparse.Namespace) -> SearchParams:
    params = SearchParams.from_values(
        w=DEFAULT_W if args.window is None else args.window,
        tau=DEFAULT_TAU if args.tau is None else args.tau,
        k_max=args.k_max,
        m=args.sub_partitions,
    )
    mode = getattr(args, "routing", None)
    block = getattr(args, "routing_block", None)
    if block is None:
        return params.with_routing(mode)
    return params.with_routing(
        RoutingPolicy(mode=mode or "exact", block_tokens=block)
    )


def _cmd_index(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    print(f"loading corpus from {args.data} ...", file=sys.stderr)
    data = collection_from_directory(args.data, min_tokens=args.min_tokens)
    print(f"  {data}", file=sys.stderr)
    if args.greedy_partition:
        print("running greedy token-universe partitioning ...", file=sys.stderr)
    index = Index.build(
        data,
        params,
        greedy_partition=args.greedy_partition,
        sample_ratio=args.sample_ratio,
    )
    searcher = index.searcher()
    if args.greedy_partition:
        print(f"  borders {searcher.scheme.borders}", file=sys.stderr)
    print(
        f"indexed {searcher.index.num_windows} windows "
        f"({searcher.index.num_postings} interval postings) in "
        f"{searcher.index_build_seconds:.2f}s",
        file=sys.stderr,
    )
    index.save(args.out, rotate=args.rotate)
    print(f"wrote {args.out}", file=sys.stderr)
    if args.metrics_out:
        registry = MetricsRegistry()
        registry.timer("index.build_seconds").add(searcher.index_build_seconds)
        registry.counter("index.num_documents").inc(len(data))
        registry.counter("index.num_windows").inc(searcher.index.num_windows)
        registry.counter("index.num_postings").inc(searcher.index.num_postings)
        _write_metrics(
            args.metrics_out,
            {"name": "index", "schema_version": 1,
             "metrics": registry.snapshot()},
        )
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Stream documents into a durable LSM ingest directory.

    Opens (or creates) the write-ahead-logged store at ``--dir``,
    appends every ``.txt`` directly in ``--data`` (the files ``repro
    index`` reads) and/or every line of stdin (``--from-stdin``),
    applies ``--remove`` tombstones, and optionally folds with
    ``--flush`` / ``--compact`` before closing.
    Killing the process mid-stream loses nothing: the next open
    replays the WAL and resumes at the same state.
    """
    from .ingest.manifest import MANIFEST_NAME

    paths = text_files(args.data) if args.data else []
    directory = Path(args.dir)
    creating = not (directory / MANIFEST_NAME).exists()
    if not creating and args.routing_block is not None:
        raise ConfigurationError(
            f"--routing-block sets the fingerprint layout when --dir is "
            f"created; {directory} exists and keeps the one it was created with"
        )
    given = (args.window, args.tau, args.k_max, args.sub_partitions) != (None,) * 4
    params = _params_from_args(args) if creating or given else None
    index = Index.open_live(
        directory,
        params,
        routing=None if creating else args.routing,
        fsync=args.fsync,
    )
    store = index.searcher().store
    print(
        f"{'created' if creating else 'opened'} ingest store at {directory} "
        f"(w={index.params.w}, tau={index.params.tau}, "
        f"docs={store.next_doc_id}, segments={store.num_segments})",
        file=sys.stderr,
    )
    added = 0
    try:
        for path in paths:
            index.add(path.read_text(encoding="utf-8"), name=path.name)
            added += 1
        if args.from_stdin:
            for line in sys.stdin:
                line = line.strip()
                if line:
                    index.add(line)
                    added += 1
        for doc_id in args.remove or ():
            index.remove(doc_id)
        if args.compact:
            index.compact()
        elif args.flush:
            index.flush()
    finally:
        summary = store.metrics_snapshot()
        index.close()
    print(
        f"ingested {added} documents "
        f"(total {store.next_doc_id}, {store.num_segments} segments, "
        f"{len(store.removed)} tombstones)",
        file=sys.stderr,
    )
    if args.metrics_out:
        _write_metrics(
            args.metrics_out,
            {"name": "ingest", "schema_version": 1, "metrics": summary},
        )
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from .eval.harness import run_searcher

    index = Index.open(
        args.index, mmap=args.mmap, routing=args.routing
    )
    searcher, data, params = index.searcher(), index.data, index.params
    queries = [  # an ids-only snapshot is Index.encode_query's typed error
        index.encode_query(
            Path(path).read_text(encoding="utf-8"), name=Path(path).name
        )
        for path in args.query
    ]
    run = run_searcher(
        searcher,
        queries,
        jobs=args.jobs,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    if args.metrics_out:
        _write_metrics(args.metrics_out, run.metrics_snapshot())
    for failure in run.failures:
        print(
            f"warning: query {failure.query_name or failure.position} "
            f"quarantined after {failure.attempts} attempts: "
            f"{failure.error_type}: {failure.error_message}",
            file=sys.stderr,
        )
    found_any = False
    for position, query in enumerate(queries):
        # encode_query yields doc_id -1, so the run keys by position.
        pairs = run.results_by_query.get(position, [])
        passages = filter_passages(
            merge_passages(pairs, params.w),
            min_pairs=args.min_pairs,
        )
        found_any = found_any or bool(passages)
        for passage in passages:
            document = data[passage.doc_id]
            q_lo, q_hi = passage.query_span
            d_lo, d_hi = passage.data_span
            print(
                f"{query.name}[{q_lo}:{q_hi + 1}] ~ "
                f"{document.name}[{d_lo}:{d_hi + 1}] "
                f"({passage.num_pairs} window pairs, "
                f"best overlap {passage.max_overlap}/{params.w})"
            )
            if args.show_text:
                snippet = " ".join(
                    data.decode_window(query, q_lo, q_hi + 1 - q_lo)
                )
                print(f"    {snippet}")
    if not found_any:
        print("no reused passages found")
        return 1
    return 0


def _cmd_selfjoin(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    data = collection_from_directory(args.data, min_tokens=args.min_tokens)
    print(f"loaded {data}", file=sys.stderr)
    join_started = time.perf_counter()
    pairs = local_similarity_self_join(
        data,
        params,
        exclude_same_document_within=params.w,
        jobs=args.jobs,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    if args.metrics_out:
        registry = MetricsRegistry()
        registry.timer("selfjoin.seconds").add(time.perf_counter() - join_started)
        registry.counter("selfjoin.num_documents").inc(len(data))
        registry.counter("selfjoin.num_pairs").inc(len(pairs))
        _write_metrics(
            args.metrics_out,
            {"name": "selfjoin", "schema_version": 1,
             "metrics": registry.snapshot()},
        )
    if not pairs:
        print("no replicated windows found")
        return 1
    # Group pairs into document-pair summaries.
    from collections import Counter

    doc_pairs: Counter[tuple[int, int]] = Counter()
    for pair in pairs:
        doc_pairs[(pair.left_doc, pair.right_doc)] += 1
    for (left, right), count in doc_pairs.most_common():
        print(
            f"{data[left].name} ~ {data[right].name}: "
            f"{count} replicated window pairs"
        )
    return 0


def _graceful_sigterm() -> None:
    """Make SIGTERM unwind like Ctrl-C so serve loops run their cleanup.

    Without this a supervisor's ``terminate()`` skips the ``finally``
    blocks — a sharded router would orphan its worker processes.
    """

    def _handler(signum, frame):  # noqa: ARG001 - signal API
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _handler)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import serve_http

    if args.shards > 1:
        if args.live:
            print("error: --live and --shards are mutually exclusive",
                  file=sys.stderr)
            return 2
        unread = [
            flag
            for flag, value in (
                ("--routing", args.routing),
                ("--max-queue", args.max_queue),
            )
            if value is not None
        ]
        if unread:
            print(
                f"error: {' and '.join(unread)} cannot be combined with "
                f"--shards: the shards serve under the routing policy "
                f"stored in the snapshot (repro index --routing) unless a "
                f"request names one (repro query --routing), and each "
                f"shard worker keeps the default admission queue",
                file=sys.stderr,
            )
            return 2
        return _serve_sharded(args)
    index = service = server = None
    # Everything from the handler install to serve_forever() sits in the
    # try: a SIGTERM anywhere in it unwinds through the same cleanup.
    try:
        _graceful_sigterm()
        if args.live:
            index = Index.open_live(
                args.index, routing=args.routing, background=True
            )
            store = index.searcher().store
            print(
                f"opened live ingest store {args.index} "
                f"(w={index.params.w}, tau={index.params.tau}, "
                f"docs={store.next_doc_id}, segments={store.num_segments}, "
                f"background compactor on)",
                file=sys.stderr,
            )
        else:
            index = Index.open(
                args.index, mmap=args.mmap, routing=args.routing
            )
            print(
                f"loaded {index} in {index.load_seconds:.2f}s "
                f"(w={index.params.w}, tau={index.params.tau})",
                file=sys.stderr,
            )
        service = index.serve(
            max_workers=args.workers,
            max_queue=64 if args.max_queue is None else args.max_queue,
            cache_size=args.cache_size,
            default_timeout=args.request_timeout,
        )
        server = serve_http(
            service, host=args.host, port=args.port, verbose=args.verbose
        )
        host, port = server.server_address[:2]
        # Machine-readable line on stdout: smoke scripts parse the URL from
        # it (mandatory with --port 0, where the OS picks the port).
        print(f"SERVING http://{host}:{port}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down ...", file=sys.stderr)
    finally:
        if server is not None:
            server.server_close()
        if service is not None:
            if args.metrics_out:
                _write_metrics(args.metrics_out, service.metrics_snapshot())
            service.close()
        if index is not None:
            index.close()
    return 0


def _serve_sharded(args: argparse.Namespace) -> int:
    """``repro serve --shards N``: worker processes + scatter router.

    Forks the :class:`~repro.service.WorkerLauncher` first — before the
    snapshot is opened and before any thread starts — and prints
    ``LAUNCHER pid=<pid>``.  Then builds (or reuses) a
    :class:`~repro.service.ShardPlan` of compact snapshots next to the
    index, has the launcher fork ``--replicas`` ``repro serve`` workers
    per shard mapping that shard's snapshot (with no result cache), and
    fronts them with a :class:`~repro.service.ShardRouter` on the
    requested port, whose cache ``--cache-size`` sizes.  One
    ``SHARD <id> <url> pid=<pid> docs=[lo,hi) replica=<r>`` line per
    worker goes to stdout before the ``SERVING`` line so smoke scripts
    can target (or kill) individual workers.  Unless ``--no-supervise``
    is given, a :class:`~repro.service.ShardSupervisor` watches the
    workers and has the launcher fork replacements for dead ones.
    """
    from .service import (
        ShardPlan,
        ShardRouter,
        ShardSupervisor,
        WorkerLauncher,
        backends_for_workers,
        serve_http,
        spawn_shard_workers,
        stop_shard_workers,
    )

    launcher = WorkerLauncher.start()
    print(f"LAUNCHER pid={launcher.pid}", flush=True)
    workers = []
    router = None
    server = None
    supervisor = None
    try:
        _graceful_sigterm()
        index = Index.open(args.index, mmap=args.mmap)
        if index.data is None:
            print("error: sharded serving needs an index saved with its data",
                  file=sys.stderr)
            return 1
        shard_dir = Path(args.shard_dir or f"{args.index}.shards")
        plan = ShardPlan.ensure(
            index.data,
            index.params,
            shard_dir,
            num_shards=args.shards,
            replicas=args.replicas,
        )
        print(
            f"shard plan: {plan.num_shards} shards x {plan.replicas} "
            f"replica(s) over {plan.num_documents} documents (generation "
            f"{plan.generation}) in {shard_dir}",
            file=sys.stderr,
        )
        workers = spawn_shard_workers(
            shard_dir,
            plan,
            launcher=launcher,
            workers=args.workers,
        )
        for worker in workers:
            spec = worker.spec
            print(
                f"SHARD {spec.shard_id} {worker.url} pid={worker.pid} "
                f"docs=[{spec.doc_lo},{spec.doc_hi}) replica={worker.replica}",
                flush=True,
            )
        router = ShardRouter(
            backends_for_workers(workers),
            index.data,
            default_timeout=args.request_timeout,
            cache_size=args.cache_size,
        )
        if not args.no_supervise:
            supervisor = ShardSupervisor(
                router,
                workers,
                directory=shard_dir,
                check_interval=args.check_interval,
            ).start()
        server = serve_http(
            router, host=args.host, port=args.port, verbose=args.verbose
        )
        host, port = server.server_address[:2]
        print(f"SERVING http://{host}:{port}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down ...", file=sys.stderr)
    finally:
        if server is not None:
            server.server_close()
        if args.metrics_out and router is not None:
            _write_metrics(args.metrics_out, router.metrics_snapshot())
        if supervisor is not None:
            supervisor.stop()
            workers = supervisor.workers  # restarts replaced some handles
        if router is not None:
            router.close()
        stop_shard_workers(workers)
        launcher.close()
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .service.client import ResilientClient

    client = ResilientClient(
        args.server, retries=args.retries, deadline=args.timeout
    )
    if args.healthz:
        health = client.healthz()
        print(json.dumps(health, indent=2, sort_keys=True))
        return 0 if health.get("status") == "ok" else 1
    if (args.text is None) == (args.query is None):
        print("error: pass exactly one of --text or --query", file=sys.stderr)
        return 2
    text = (
        args.text
        if args.text is not None
        else Path(args.query).read_text(encoding="utf-8")
    )
    reply = client.search(
        text, timeout=args.request_timeout, routing=args.routing
    )
    print(
        f"{reply['num_pairs']} window pairs "
        f"({'cached' if reply['cached'] else 'fresh'}, "
        f"{reply['seconds'] * 1e3:.1f}ms, index epoch {reply['index_epoch']})"
    )
    if args.show_pairs:
        for doc_id, data_start, query_start, overlap in reply["pairs"]:
            print(f"  doc {doc_id} [{data_start}] ~ query [{query_start}] "
                  f"overlap {overlap}")
    return 0 if reply["num_pairs"] else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro`` argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Local similarity search for unstructured text "
        "(SIGMOD 2016 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    index_parser = subparsers.add_parser(
        "index", help="build and save a pkwise index from a text directory"
    )
    index_parser.add_argument("--data", required=True, help="directory of .txt files")
    index_parser.add_argument("--out", required=True, help="output index file")
    index_parser.add_argument("--min-tokens", type=int, default=0,
                              help="drop documents shorter than this")
    index_parser.add_argument("--greedy-partition", action="store_true",
                              help="run the cost-based greedy partitioner")
    index_parser.add_argument("--sample-ratio", type=float, default=0.01,
                              help="surrogate workload sample ratio")
    index_parser.add_argument("--rotate", type=int, default=0,
                              help="keep N previous snapshot generations "
                                   "(.1 newest .. .N oldest; default 0)")
    _add_search_params(index_parser)
    _add_routing_flags(index_parser)
    _add_routing_layout_flag(index_parser)
    _add_obs_flags(index_parser)
    index_parser.set_defaults(func=_cmd_index)

    ingest_parser = subparsers.add_parser(
        "ingest",
        help="stream documents into a durable LSM ingest directory "
        "(WAL + memtable + compact segments; crash-safe)",
    )
    ingest_parser.add_argument("--dir", required=True,
                               help="ingest directory (created on first use)")
    ingest_parser.add_argument("--data", default=None,
                               help="directory of .txt files to append")
    ingest_parser.add_argument("--from-stdin", action="store_true",
                               help="append one document per non-empty "
                                    "stdin line")
    ingest_parser.add_argument("--remove", type=int, action="append",
                               help="tombstone this doc id (repeatable)")
    ingest_parser.add_argument("--flush", action="store_true",
                               help="fold the memtable into a compact "
                                    "segment before closing")
    ingest_parser.add_argument("--compact", action="store_true",
                               help="fold everything into one segment, "
                                    "purging tombstones")
    ingest_parser.add_argument("--fsync", action="store_true",
                               help="fsync every WAL append (power-loss "
                                    "durability, slower)")
    _add_search_params(ingest_parser)
    _add_routing_flags(ingest_parser)
    _add_routing_layout_flag(ingest_parser)
    _add_obs_flags(ingest_parser)
    ingest_parser.set_defaults(func=_cmd_ingest)

    search_parser = subparsers.add_parser(
        "search", help="search a query file against a saved index"
    )
    search_parser.add_argument("--index", required=True, help="saved index file")
    search_parser.add_argument("--query", required=True, action="append",
                               help="query .txt file (repeat for a batch)")
    search_parser.add_argument("--min-pairs", type=int, default=2,
                               help="min window pairs per reported passage")
    search_parser.add_argument("--show-text", action="store_true",
                               help="print the reused query text")
    search_parser.add_argument("--checkpoint", metavar="FILE", default=None,
                               help="accumulate completed chunks in FILE so "
                                    "an interrupted run can --resume")
    search_parser.add_argument("--resume", action="store_true",
                               help="continue from an existing --checkpoint")
    search_parser.add_argument("--mmap", action="store_true",
                               help="memory-map the index columns instead "
                                    "of reading them into memory")
    _add_routing_flags(search_parser)
    _add_jobs_flag(search_parser)
    _add_obs_flags(search_parser)
    search_parser.set_defaults(func=_cmd_search)

    selfjoin_parser = subparsers.add_parser(
        "selfjoin", help="find replication inside a directory of files"
    )
    selfjoin_parser.add_argument("--data", required=True,
                                 help="directory of .txt files")
    selfjoin_parser.add_argument("--min-tokens", type=int, default=0)
    selfjoin_parser.add_argument("--checkpoint", metavar="FILE", default=None,
                                 help="accumulate completed blocks in FILE so "
                                      "an interrupted join can --resume")
    selfjoin_parser.add_argument("--resume", action="store_true",
                                 help="continue from an existing --checkpoint")
    _add_search_params(selfjoin_parser)
    _add_jobs_flag(selfjoin_parser)
    _add_obs_flags(selfjoin_parser)
    selfjoin_parser.set_defaults(func=_cmd_selfjoin)

    serve_parser = subparsers.add_parser(
        "serve", help="serve a saved index over HTTP (search/healthz/metrics)"
    )
    serve_parser.add_argument("--index", required=True, help="saved index file")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8080,
                              help="bind port (0 = OS-assigned; default 8080)")
    serve_parser.add_argument("--workers", type=int, default=4,
                              help="service worker threads (default 4)")
    serve_parser.add_argument("--max-queue", type=int, default=None,
                              help="admission queue bound (default 64; "
                                   "refused with --shards)")
    serve_parser.add_argument("--cache-size", type=int, default=256,
                              help="result cache entries (with --shards, the "
                                   "router's; shard workers run without one); "
                                   "0 disables (default 256)")
    serve_parser.add_argument("--request-timeout", type=float, default=None,
                              help="default per-request deadline in seconds")
    serve_parser.add_argument("--verbose", action="store_true",
                              help="log every HTTP request to stderr")
    serve_parser.add_argument("--live", action="store_true",
                              help="treat --index as an ingest directory "
                                   "(repro ingest) and serve it live: "
                                   "POST /ingest and /remove mutate while "
                                   "queries keep flowing")
    serve_parser.add_argument("--mmap", action="store_true",
                              help="memory-map the index columns instead "
                                   "of reading them into memory")
    serve_parser.add_argument("--shards", type=int, default=1,
                              help="partition the corpus into N compact "
                                   "shards, each served by its own worker "
                                   "process behind a scatter-gather router "
                                   "(default 1 = single in-process service)")
    serve_parser.add_argument("--shard-dir", default=None,
                              help="directory for shard snapshots + manifest "
                                   "(default <index>.shards); a compatible "
                                   "existing manifest is reused")
    serve_parser.add_argument("--replicas", type=int, default=1,
                              help="worker processes per shard (sharded mode "
                                   "only); with R >= 2 the router fails over "
                                   "to a sibling replica before declaring a "
                                   "shard dead (default 1)")
    serve_parser.add_argument("--check-interval", type=float, default=1.0,
                              help="seconds between supervisor liveness "
                                   "sweeps over the shard workers "
                                   "(default 1.0)")
    serve_parser.add_argument("--no-supervise", action="store_true",
                              help="disable the shard supervisor: dead "
                                   "workers stay dead and queries degrade "
                                   "to partial results (sharded mode only)")
    _add_routing_flags(serve_parser)
    _add_obs_flags(serve_parser)
    serve_parser.set_defaults(func=_cmd_serve)

    query_parser = subparsers.add_parser(
        "query", help="send one query to a running 'repro serve'"
    )
    query_parser.add_argument("--server", required=True,
                              help="base URL, e.g. http://127.0.0.1:8080")
    query_parser.add_argument("--text", default=None, help="query text inline")
    query_parser.add_argument("--query", default=None, help="query .txt file")
    query_parser.add_argument("--request-timeout", type=float, default=None,
                              help="service-side deadline in seconds")
    query_parser.add_argument("--retries", type=int, default=0,
                              help="retry attempts after the first try "
                                   "(backoff + jitter, honoring retry-after; "
                                   "default 0)")
    query_parser.add_argument("--timeout", type=float, default=None,
                              help="total client deadline budget in seconds "
                                   "across all attempts (default unbounded)")
    query_parser.add_argument("--show-pairs", action="store_true",
                              help="print every matching window pair")
    query_parser.add_argument("--healthz", action="store_true",
                              help="print the server's health report instead")
    _add_routing_flags(query_parser)
    query_parser.set_defaults(func=_cmd_query)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    tracing = getattr(args, "trace", None) is not None
    if tracing:
        configure_tracing(args.trace)
    fault_file = getattr(args, "faults", None)
    if fault_file is not None:
        from . import faults

        faults.install_plan(faults.FaultPlan.from_json_file(fault_file))
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader left (`repro search ... | head -1`).  As the Python
        # docs' SIGPIPE note prescribes: point stdout at devnull so the
        # interpreter's exit flush cannot raise again, exit non-zero.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        if tracing:
            disable_tracing()
        if fault_file is not None:
            from . import faults

            faults.clear_plan()


if __name__ == "__main__":
    raise SystemExit(main())
