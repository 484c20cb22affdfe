"""The multi-core execution engine behind ``--jobs``.

:class:`ParallelExecutor` runs the two batch-shaped operations of the
library — a query workload and the all-pairs self-join — across a
process pool, with four invariants.  (Index construction stays
in-process: a pooled build measured no faster than the serial one.)

* **Determinism.**  Every operation returns exactly what its serial
  counterpart returns: per-query pair lists in canonical order,
  self-join pairs in sorted order.  Chunks are reassembled by item
  identity (query position, document id), never by arrival.
* **Chunked dispatch.**  Work is cut into ~``CHUNKS_PER_WORKER`` pieces
  per worker so one slow shard cannot idle the rest of the pool; the
  resulting skew is measured and reported per worker.
* **One decider.**  This module alone chooses between the serial code
  and the pool: ``jobs=1`` (or a trivially small input) runs in-process,
  and "one per CPU" is spelled here and nowhere else (``jobs=0`` or
  ``None``).  Callers pass ``jobs`` through unconditionally.
* **Crash recovery, one pool.**  Both operations run under the
  same *supervised* dispatch (:mod:`concurrent.futures`): a chunk that
  raises is retried with capped exponential backoff, a chunk that keeps
  failing is bisected until the poison item is isolated, and a worker
  process that dies outright (segfault, OOM kill, injected
  ``os._exit``) triggers a bounded pool restart with every lost chunk
  re-dispatched.  Surviving results stay exact — a failed chunk
  contributes nothing until a retry completes it whole.  Poison queries
  are quarantined into typed :class:`~repro.eval.harness.QueryFailure`
  records on the run; a poison self-join document re-raises (a join is
  exact-or-error).  Optional chunk-granularity checkpoints make
  workloads and self-joins resumable after a crash or Ctrl-C (see
  :mod:`repro.parallel.checkpoint`).
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import tempfile
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from pathlib import Path

from .. import faults
from ..core.base import MatchPair, SearchStats
from ..core.pkwise import PKWiseSearcher
from ..core.selfjoin import SelfJoinPair
from ..corpus import Document, DocumentCollection
from ..errors import ConfigurationError, WorkerCrashError
from ..eval.harness import (
    AggregateRun,
    QueryFailure,
    RecoveryReport,
    WorkerReport,
    canonical_pair_order,
    serial_run,
)
from ..obs import MetricsRegistry, get_tracer
from ..params import SearchParams
from . import worker
from .checkpoint import (
    SELFJOIN_KIND,
    WORKLOAD_KIND,
    RunCheckpoint,
    selfjoin_fingerprint,
    workload_fingerprint,
)

#: Target number of chunks dispatched per pool worker.  More chunks
#: smooth out skew between uneven shards; fewer chunks amortize task
#: pickling better.  4 is the usual sweet spot for workloads of tens to
#: thousands of items.
CHUNKS_PER_WORKER = 4

#: Failed attempts a unit may make before it is bisected (multi-item
#: units) or quarantined (single items): a unit runs at most three times.
CHUNK_RETRIES = 2

#: Base (seconds) of the exponential delay before a failed unit is
#: re-dispatched: ``min(RETRY_BACKOFF_CAP, RETRY_BACKOFF * 2**(attempt - 1))``.
RETRY_BACKOFF = 0.05

#: Cap (seconds) of that delay.
RETRY_BACKOFF_CAP = 1.0

#: Worker deaths one operation survives; one more raises
#: :class:`~repro.errors.WorkerCrashError` (completed chunks are
#: preserved in the checkpoint when one is configured).
MAX_POOL_RESTARTS = 3

#: How pool workers start.  ``fork``: workers inherit the searcher
#: through copy-on-write memory.  ``spawn``, the only method where
#: ``fork`` does not exist: the searcher travels through a persisted
#: index file or pickle.
START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"

#: Newly completed chunks between two flushes of a run checkpoint.
CHECKPOINT_EVERY = 1


class _Unit:
    """One retryable unit of dispatched work (a sliceable chunk of items)."""

    __slots__ = ("items", "attempts")

    def __init__(self, items, attempts: int = 0) -> None:
        self.items = items
        self.attempts = attempts


def _reap(pool: ProcessPoolExecutor) -> None:
    """Stop ``pool`` now and join its processes and threads.

    Workers are killed, not drained or sent SIGTERM: a forked worker
    inherits its parent's Python signal handlers, and one that turns
    SIGTERM into ``KeyboardInterrupt`` (``repro serve`` installs such a
    handler) lets a worker inside a task catch it and wait for more
    work.  A worker killed part way through writing its reply leaves
    half a message in the reply pipe, and the pool's manager thread
    would wait for the rest forever: this process holds a write end of
    that pipe too.  Closing it once every worker is gone turns the wait
    into end-of-file, so the shutdown returns, and no thread of the pool
    is left for a later ``fork`` to copy.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for process in processes:
        process.kill()
    for process in processes:
        process.join()
    result_queue = getattr(pool, "_result_queue", None)
    if result_queue is not None:
        result_queue._writer.close()
    pool.shutdown(wait=True, cancel_futures=True)


def _require_checkpoint_to_resume(checkpoint, resume: bool) -> None:
    """Refuse ``resume=True`` without a checkpoint: there is nothing to
    resume from, and a run from scratch would hide the mistake."""
    if resume and checkpoint is None:
        raise ConfigurationError(
            "resume=True needs the checkpoint file of the interrupted run"
        )


def _reraise(item, exc: Exception, attempts: int) -> None:
    """``on_poison`` of the exact-or-error self-join: there is no
    per-item report that makes a partial join safe."""
    raise exc


class ParallelExecutor:
    """Process-pool execution of query workloads and self-joins.

    ``jobs`` is the number of worker processes; ``0`` or ``None`` means
    one per CPU, and ``1`` disables the pool (serial pass-through).
    Everything else about the pool — start method, chunk size, retry
    backoff, restart budget — is a constant of this module.
    """

    def __init__(self, jobs: int | None = None) -> None:
        if jobs is None or jobs == 0:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ConfigurationError(
                f"jobs must be >= 1 (or 0 for one per CPU), got {jobs}"
            )
        self.jobs = jobs

    # ------------------------------------------------------------------
    # Pool plumbing
    # ------------------------------------------------------------------
    @contextmanager
    def _worker_state(self, state):
        """Yield the ``ProcessPoolExecutor`` keywords that carry ``state``.

        The supervised dispatcher creates (and after a crash, recreates)
        its own pools, so state transport is factored out of pool
        construction: under ``fork`` the state sits in ``worker._STATE``
        for the whole run and every pool generation inherits it; under
        ``spawn`` each generation replays the initializer — a snapshot
        file that every worker memory-maps (a ``PKWiseSearcher``: one
        file, one shared page cache, near-constant per-worker startup
        instead of a full unpickle), the pickled searcher for any other
        engine.  The active fault plan travels in the initargs so
        injection points fire identically under every start method.
        """
        pool_args = {"mp_context": multiprocessing.get_context(START_METHOD)}
        plan = faults.get_plan()
        if START_METHOD == "fork":
            worker.set_forked_state(state)
            try:
                yield pool_args
            finally:
                worker.clear_forked_state()
        elif isinstance(state, PKWiseSearcher):
            from ..persistence import save_searcher

            temp_dir = tempfile.TemporaryDirectory(prefix="repro-parallel-")
            try:
                index_path = Path(temp_dir.name) / "searcher.idx"
                save_searcher(state, index_path)
                yield {
                    **pool_args,
                    "initializer": worker.init_searcher_file,
                    "initargs": (str(index_path), plan),
                }
            finally:
                temp_dir.cleanup()
        else:
            yield {
                **pool_args,
                "initializer": worker.init_state,
                "initargs": (state, plan),
            }

    def _chunk(self, items: list) -> list[list]:
        """Cut ``items`` into dispatch chunks (order-preserving)."""
        size = max(1, math.ceil(len(items) / (self.jobs * CHUNKS_PER_WORKER)))
        return [items[lo : lo + size] for lo in range(0, len(items), size)]

    # ------------------------------------------------------------------
    # Supervised dispatch (crash recovery core)
    # ------------------------------------------------------------------
    def _supervise(
        self,
        *,
        units: list[_Unit],
        task_fn,
        make_task,
        pool_args: dict,
        processes: int,
        recovery: RecoveryReport,
        on_result,
        on_poison,
        checkpoint: RunCheckpoint | None = None,
    ) -> None:
        """Drive ``units`` through a restartable supervised pool.

        ``pool_args`` comes from :meth:`_worker_state`.  Per completed
        unit ``on_result(unit, result)`` fires exactly once.  A unit
        whose task raises an :class:`Exception` is retried
        up to ``CHUNK_RETRIES`` times with capped exponential backoff,
        then bisected (multi-item) or handed to ``on_poison(item, exc,
        attempts)`` (single item).  A dead worker process breaks the
        whole pool (:class:`BrokenProcessPool`); in-flight units are
        settled — results that finished before the crash are kept, the
        rest requeue *without* being charged an attempt (an innocent
        chunk sharing a pool with a crasher must not drift toward
        quarantine) — and the pool is rebuilt, at most
        ``MAX_POOL_RESTARTS`` times.

        Any abort (``KeyboardInterrupt``, ``WorkerCrashError``, an
        ``on_poison`` re-raise) terminates worker processes immediately
        and flushes the checkpoint before propagating, so Ctrl-C never
        hangs on pool join and never loses completed chunks.  The pool
        is joined, threads and all, before the abort propagates
        (:func:`_reap`).
        """
        pending: deque[_Unit] = deque(units)
        in_flight: dict = {}
        task_ids = itertools.count()
        restarts = 0
        pool: ProcessPoolExecutor | None = None

        def handle_failure(unit: _Unit, exc: Exception) -> None:
            unit.attempts += 1
            if unit.attempts <= CHUNK_RETRIES:
                recovery.chunk_retries += 1
                delay = min(
                    RETRY_BACKOFF_CAP,
                    RETRY_BACKOFF * (2 ** (unit.attempts - 1)),
                )
                if delay > 0:
                    time.sleep(delay)
                pending.append(unit)
            elif len(unit.items) > 1:
                # The chunk keeps failing: split it so the poison item
                # isolates in O(log chunk) re-dispatches.
                recovery.chunk_bisections += 1
                mid = len(unit.items) // 2
                pending.append(_Unit(unit.items[:mid]))
                pending.append(_Unit(unit.items[mid:]))
            else:
                on_poison(unit.items[0], exc, unit.attempts)

        def harvest(futures) -> bool:
            """Settle ``futures``; True when the pool broke underneath."""
            broken = False
            for future in futures:
                unit = in_flight.pop(future)
                exc = future.exception()
                if exc is None:
                    on_result(unit, future.result())
                elif isinstance(exc, BrokenProcessPool):
                    broken = True
                    pending.append(unit)
                elif isinstance(exc, Exception):
                    handle_failure(unit, exc)
                else:
                    # A worker-raised KeyboardInterrupt (or other
                    # BaseException) is an abort, never a retry.
                    raise exc
            return broken

        def on_pool_broken() -> None:
            nonlocal pool, restarts
            # Every in-flight future settles once the pool is broken;
            # results that arrived before the crash are kept.
            wait(list(in_flight))
            harvest(list(in_flight))
            pool.shutdown(wait=True)
            pool = None
            restarts += 1
            if restarts > MAX_POOL_RESTARTS:
                raise WorkerCrashError(
                    f"worker pool crashed {restarts} times "
                    f"(MAX_POOL_RESTARTS={MAX_POOL_RESTARTS})"
                    + (
                        f"; completed chunks are preserved in checkpoint "
                        f"{checkpoint.path} — rerun with resume=True"
                        if checkpoint is not None
                        else "; no checkpoint was configured"
                    ),
                    restarts=restarts,
                )
            recovery.pool_restarts += 1

        try:
            while pending or in_flight:
                if pool is None:
                    pool = ProcessPoolExecutor(max_workers=processes, **pool_args)
                submitted_ok = True
                while pending:
                    unit = pending.popleft()
                    try:
                        future = pool.submit(
                            task_fn, make_task(next(task_ids), unit)
                        )
                    except BrokenProcessPool:
                        pending.appendleft(unit)
                        submitted_ok = False
                        break
                    in_flight[future] = unit
                if not in_flight:
                    if not submitted_ok:
                        on_pool_broken()
                    continue
                done, _ = wait(list(in_flight), return_when=FIRST_COMPLETED)
                if harvest(done) or not submitted_ok:
                    on_pool_broken()
            if pool is not None:
                pool.shutdown(wait=True)
        except BaseException:
            if pool is not None:
                _reap(pool)
            if checkpoint is not None:
                # force=True: the file named by WorkerCrashError must
                # exist even when the crash beat the first chunk.
                checkpoint.flush(force=True)
            raise

    # ------------------------------------------------------------------
    # (a) Query-workload sharding
    # ------------------------------------------------------------------
    def run_workload(
        self,
        searcher,
        queries: list[Document],
        name: str | None = None,
        *,
        checkpoint: str | Path | None = None,
        resume: bool = False,
    ) -> AggregateRun:
        """Shard ``queries`` over the pool; merge into an AggregateRun.

        The merged run is identical to :func:`~repro.eval.harness.serial_run`
        on the same inputs — per-query pair lists in canonical order,
        ``results_by_query`` keyed and inserted in workload order —
        plus per-worker skew reports.  Timing fields reflect the
        parallel wall clock, never the serial one.

        Failed chunks are retried, bisected, and — when a single query
        keeps failing — quarantined into ``run.failures`` while every
        surviving query's results remain exact (byte-identical to a
        serial run over the surviving subset).  ``checkpoint=`` names a
        file that accumulates completed chunks so an interrupted run
        (worker crashes beyond ``MAX_POOL_RESTARTS``, Ctrl-C, power
        loss after a flush) can continue with ``resume=True``; the file
        is removed when the run completes.  A checkpoint forces the
        supervised path even at ``jobs=1``; ``resume=True`` without one
        raises :class:`~repro.errors.ConfigurationError`.
        """
        _require_checkpoint_to_resume(checkpoint, resume)
        if checkpoint is None and (self.jobs == 1 or len(queries) <= 1):
            return serial_run(searcher, queries, name=name)

        recovery = RecoveryReport()
        failures: list[QueryFailure] = []
        raw_units: list[tuple] = []  # (pid, elapsed, snapshot, rows)

        run_checkpoint: RunCheckpoint | None = None
        items = list(enumerate(queries))
        if checkpoint is not None:
            fingerprint = workload_fingerprint(searcher, queries)
            run_checkpoint = RunCheckpoint.open(
                checkpoint, WORKLOAD_KIND, fingerprint, resume=resume
            )
            skip = run_checkpoint.done_keys()
            for record in run_checkpoint.failure_records():
                failure = QueryFailure.from_dict(record["failure"])
                failures.append(failure)
                skip.add(failure.position)
            for record in run_checkpoint.unit_records():
                rows = [
                    (position, doc_id, [MatchPair(*pair) for pair in pairs])
                    for position, doc_id, pairs in record["rows"]
                ]
                raw_units.append(
                    (record["pid"], record["elapsed"], record["snapshot"], rows)
                )
            recovery.resumed_items = len(skip)
            items = [(pos, query) for pos, query in items if pos not in skip]

        units = [_Unit(chunk) for chunk in self._chunk(items)]
        processes = min(self.jobs, max(1, len(units)))
        started = time.perf_counter()

        def on_result(unit: _Unit, result) -> None:
            _chunk_index, pid, elapsed, snapshot, rows = result
            raw_units.append((pid, elapsed, snapshot, rows))
            if run_checkpoint is not None:
                run_checkpoint.record(
                    [position for position, _doc_id, _pairs in rows],
                    pid=pid,
                    elapsed=elapsed,
                    snapshot=snapshot,
                    rows=rows,
                )
                if run_checkpoint.dirty >= CHECKPOINT_EVERY:
                    run_checkpoint.flush()

        def on_poison(item, exc: Exception, attempts: int) -> None:
            position, query = item
            failure = QueryFailure(
                position=position,
                query_id=query.doc_id if query.doc_id >= 0 else position,
                query_name=query.name,
                error_type=type(exc).__name__,
                error_message=str(exc),
                attempts=attempts,
            )
            failures.append(failure)
            if run_checkpoint is not None:
                run_checkpoint.record_failure(failure.to_dict())
                if run_checkpoint.dirty >= CHECKPOINT_EVERY:
                    run_checkpoint.flush()

        with get_tracer().span(
            "parallel.run_workload", queries=len(queries), jobs=processes,
            chunks=len(units),
        ):
            if units:
                with self._worker_state(searcher) as pool_args:
                    self._supervise(
                        units=units,
                        task_fn=worker.search_chunk,
                        make_task=lambda task_id, unit: (task_id, unit.items),
                        pool_args=pool_args,
                        processes=processes,
                        recovery=recovery,
                        on_result=on_result,
                        on_poison=on_poison,
                        checkpoint=run_checkpoint,
                    )
        total_seconds = time.perf_counter() - started
        if run_checkpoint is not None:
            run_checkpoint.flush()
            recovery.checkpoint_saves = run_checkpoint.saves
            run_checkpoint.remove()

        # Chunks ship registry snapshots (the repro.obs wire format);
        # counter/timer merging is commutative sums (gauges max), so
        # the merged totals equal the serial run's field for field no
        # matter what order retried chunks completed in.
        total_registry = MetricsRegistry()
        rows: list = []
        by_pid: dict[int, tuple[WorkerReport, MetricsRegistry]] = {}
        for pid, elapsed, snapshot, chunk_rows in raw_units:
            total_registry.merge_snapshot(snapshot)
            rows.extend(chunk_rows)
            report, pid_registry = by_pid.setdefault(
                pid, (WorkerReport(worker_id=0), MetricsRegistry())
            )
            report.chunks += 1
            report.seconds += elapsed
            report.num_queries += len(chunk_rows)
            pid_registry.merge_snapshot(snapshot)
        total_stats = SearchStats.from_registry(total_registry)
        reports = []
        for worker_id, pid in enumerate(sorted(by_pid)):
            report, pid_registry = by_pid[pid]
            report.worker_id = worker_id
            report.stats = SearchStats.from_registry(pid_registry)
            reports.append(report)

        rows.sort(key=lambda row: row[0])
        results_by_query: dict[int, list] = {}
        for position, doc_id, pairs in rows:
            query_id = doc_id if doc_id >= 0 else position
            results_by_query[query_id] = canonical_pair_order(pairs)
        failures.sort(key=lambda failure: failure.position)

        return AggregateRun(
            name=name if name is not None else getattr(searcher, "name", "searcher"),
            num_queries=len(queries),
            total_seconds=total_seconds,
            stats=total_stats,
            results_by_query=results_by_query,
            jobs=processes,
            worker_reports=reports,
            failures=failures,
            recovery=recovery,
        )

    # ------------------------------------------------------------------
    # (b) Parallel self-join
    # ------------------------------------------------------------------
    def self_join(
        self,
        data: DocumentCollection,
        params: SearchParams,
        exclude_same_document_within: int | None = None,
        *,
        checkpoint: str | Path | None = None,
        resume: bool = False,
    ) -> list:
        """All-pairs self-join sharded by document-pair blocks.

        Each block is one slice of probe documents joined against the
        whole collection; the canonical-orientation filter already
        deduplicates across blocks, and the final sort makes the output
        identical to the serial join.  The index is built in-process
        before any probe block is dispatched.  ``jobs=1`` without a
        checkpoint (or a single document) runs the same probes
        in-process.

        Supervised like :meth:`run_workload` (chunk retries, pool
        restarts, ``checkpoint=``/``resume=``), with one difference: a
        self-join is *exact-or-error*, so a document that keeps failing
        re-raises its exception (after flushing the checkpoint) instead
        of being quarantined — there is no per-item report that could
        make a partial join safe to consume.  The ``parallel.self_join``
        span records ``chunks`` and ``pool_restarts``.
        """
        from ..core.selfjoin import document_join_pairs

        _require_checkpoint_to_resume(checkpoint, resume)
        searcher = PKWiseSearcher(data, params)
        documents = list(data)
        in_process = checkpoint is None and (
            self.jobs == 1 or len(documents) <= 1
        )
        recovery = RecoveryReport()
        results: list = []
        run_checkpoint: RunCheckpoint | None = None
        if checkpoint is not None:
            fingerprint = selfjoin_fingerprint(
                data, params, exclude_same_document_within
            )
            run_checkpoint = RunCheckpoint.open(
                checkpoint, SELFJOIN_KIND, fingerprint, resume=resume
            )
            done = run_checkpoint.done_keys()
            for record in run_checkpoint.unit_records():
                results.extend(SelfJoinPair(*pair) for pair in record["pairs"])
            recovery.resumed_items = len(done)
            documents = [
                document for document in documents if document.doc_id not in done
            ]

        units = [_Unit(chunk) for chunk in self._chunk(documents)]
        processes = min(self.jobs, max(1, len(units)))

        def on_result(unit: _Unit, result) -> None:
            _chunk_index, pid, elapsed, doc_ids, pairs = result
            results.extend(pairs)
            if run_checkpoint is not None:
                run_checkpoint.record(doc_ids, pid=pid, elapsed=elapsed, pairs=pairs)
                if run_checkpoint.dirty >= CHECKPOINT_EVERY:
                    run_checkpoint.flush()

        with get_tracer().span(
            "parallel.self_join", documents=len(documents), jobs=processes,
            chunks=len(units),
        ) as join_span:
            if in_process:
                for document in documents:
                    results.extend(
                        document_join_pairs(
                            searcher, document, exclude_same_document_within
                        )
                    )
            elif units:
                with self._worker_state(searcher) as pool_args:
                    self._supervise(
                        units=units,
                        task_fn=worker.selfjoin_chunk,
                        make_task=lambda task_id, unit: (
                            task_id,
                            unit.items,
                            exclude_same_document_within,
                        ),
                        pool_args=pool_args,
                        processes=processes,
                        recovery=recovery,
                        on_result=on_result,
                        on_poison=_reraise,
                        checkpoint=run_checkpoint,
                    )
            results.sort()
            join_span.annotate(
                pairs=len(results), pool_restarts=recovery.pool_restarts
            )
        if run_checkpoint is not None:
            run_checkpoint.flush()
            run_checkpoint.remove()
        return results
