"""Workload runner: aggregate timing with phase decomposition.

``run_searcher`` drives one algorithm over a query workload and returns
an :class:`AggregateRun` with the per-query averages the paper reports
(average query processing time, per-phase split, candidate and result
counts).  Wall-clock per phase comes from the searchers' own
instrumentation (:class:`~repro.core.base.SearchStats`).

With ``jobs > 1`` the workload is sharded across a process pool by
:class:`~repro.parallel.ParallelExecutor`; the merged run carries one
:class:`WorkerReport` per pool worker so load skew is visible.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from ..core.base import MatchPair, SearchStats
from ..corpus import Document
from ..obs import get_tracer


def canonical_pair_order(pairs: list[MatchPair]) -> list[MatchPair]:
    """Pairs sorted by (doc_id, data_start, query_start).

    The canonical per-query result order: every execution path (serial,
    sharded, any worker count) reports the same byte sequence of pairs,
    so parity checks never depend on generation order.
    """
    return sorted(
        pairs, key=lambda pair: (pair.doc_id, pair.data_start, pair.query_start)
    )


@dataclass
class QueryFailure:
    """One quarantined query of a parallel run (typed error report).

    After chunk retries and bisection isolate a repeatedly failing
    query, the executor quarantines it instead of aborting the batch:
    the query's exception is recorded here, every other query's result
    stays exact, and the run completes.  ``position`` is the query's
    index in the original workload.
    """

    position: int
    query_id: int
    query_name: str | None
    error_type: str
    error_message: str
    attempts: int

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryFailure":
        return cls(**payload)


@dataclass
class RecoveryReport:
    """What the executor's fault-tolerance machinery did during a run."""

    chunk_retries: int = 0
    chunk_bisections: int = 0
    pool_restarts: int = 0
    checkpoint_saves: int = 0
    resumed_items: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class WorkerReport:
    """One pool worker's share of a parallel run."""

    worker_id: int
    chunks: int = 0
    num_queries: int = 0
    seconds: float = 0.0
    stats: SearchStats = field(default_factory=SearchStats)


@dataclass
class AggregateRun:
    """Summary of one algorithm over one workload."""

    name: str
    num_queries: int
    total_seconds: float
    stats: SearchStats
    results_by_query: dict[int, list[MatchPair]] = field(default_factory=dict)
    jobs: int = 1
    worker_reports: list[WorkerReport] = field(default_factory=list)
    #: Queries quarantined by the executor's crash recovery (empty on
    #: clean runs); the surviving results stay exact and deterministic.
    failures: list[QueryFailure] = field(default_factory=list)
    #: Recovery actions taken (None on the serial path).
    recovery: RecoveryReport | None = None

    @property
    def avg_query_seconds(self) -> float:
        """Mean wall-clock seconds per query."""
        return self.total_seconds / self.num_queries if self.num_queries else 0.0

    @property
    def num_results(self) -> int:
        """Total match pairs across the workload."""
        return self.stats.num_results

    @property
    def worker_skew(self) -> float:
        """Max over mean of per-worker busy seconds (1.0 = balanced).

        A skew of 2.0 means the slowest worker was busy twice as long as
        the average one — the workload sharded unevenly and the slowest
        worker bounds the wall clock.  Serial runs report 1.0.
        """
        busy = [report.seconds for report in self.worker_reports]
        if len(busy) <= 1:
            return 1.0
        mean = sum(busy) / len(busy)
        return max(busy) / mean if mean > 0 else 1.0

    def phase_row(self) -> str:
        """Phase-decomposed row (Figure 6 style); all times per query."""
        n = max(1, self.num_queries)
        return (
            f"{self.name:<16} avg={self.avg_query_seconds * 1e3:9.2f}ms  "
            f"sig={self.stats.signature_time / n * 1e3:8.2f}ms  "
            f"cand={self.stats.candidate_time / n * 1e3:8.2f}ms  "
            f"verify={self.stats.verify_time / n * 1e3:8.2f}ms  "
            f"cands={self.stats.candidate_windows:<9} "
            f"results={self.num_results}"
        )

    def metrics_snapshot(self) -> dict:
        """The run as a structured :mod:`repro.obs` metrics snapshot.

        This is the canonical machine-readable record behind the CLI's
        ``--metrics-out`` flag: the search counters/timers from the
        registry plus run-level metrics under the ``run.`` prefix.  The
        counter section is execution-path independent — serial and
        ``--jobs N`` runs of one workload produce identical counters.
        """
        registry = self.stats.to_registry()
        registry.counter("run.num_queries").inc(self.num_queries)
        registry.timer("run.total_seconds").add(self.total_seconds)
        registry.gauge("run.jobs").set(self.jobs)
        registry.gauge("run.worker_skew").set(self.worker_skew)
        # Fault/recovery counters appear only when something happened,
        # so clean runs keep byte-identical snapshots across PRs.
        if self.failures:
            registry.counter("run.quarantined_queries").inc(len(self.failures))
        if self.recovery is not None:
            for metric, value in self.recovery.to_dict().items():
                if value:
                    registry.counter(f"run.recovery.{metric}").inc(value)
        return {
            "name": self.name,
            "schema_version": 1,
            "phases": self.stats.phase_seconds(),
            "metrics": registry.snapshot(),
        }


def run_searcher(
    searcher,
    queries: list[Document],
    name: str | None = None,
    *,
    jobs: int = 1,
    checkpoint=None,
    resume: bool = False,
) -> AggregateRun:
    """Run ``searcher.search`` over every query, collecting aggregates.

    The searcher only needs a ``search(query) -> SearchResult`` method
    (all core and baseline searchers qualify).  Per-query result lists
    are in canonical (doc_id, data_start, query_start) order regardless
    of how the searcher emitted them.

    ``jobs`` shards the workload over that many worker processes
    (``0`` or ``None`` = one per CPU); results are merged back
    deterministically, identical to the serial run.
    :class:`~repro.parallel.ParallelExecutor` decides between
    :func:`serial_run` in-process (``jobs=1``, no checkpoint) and its
    pool.

    ``checkpoint`` names a file that accumulates completed chunks
    (atomic, checksummed) so an interrupted run can be re-invoked with
    ``resume=True`` and finish from where it stopped; setting it runs
    the supervised dispatcher even at ``jobs=1``.  ``resume=True``
    without a ``checkpoint`` raises
    :class:`~repro.errors.ConfigurationError`.
    """
    from ..parallel import ParallelExecutor

    return ParallelExecutor(jobs).run_workload(
        searcher, queries, name=name, checkpoint=checkpoint, resume=resume
    )


def serial_run(
    searcher, queries: list[Document], name: str | None = None
) -> AggregateRun:
    """The single-process workload loop behind :func:`run_searcher`."""
    total_stats = SearchStats()
    results_by_query: dict[int, list[MatchPair]] = {}
    start = time.perf_counter()
    with get_tracer().span(
        "workload.serial", queries=len(queries)
    ) as workload_span:
        for index, query in enumerate(queries):
            result = searcher.search(query)
            total_stats.merge(result.stats)
            query_id = query.doc_id if query.doc_id >= 0 else index
            results_by_query[query_id] = canonical_pair_order(result.pairs)
        workload_span.annotate(results=total_stats.num_results)
    total_seconds = time.perf_counter() - start
    return AggregateRun(
        name=name if name is not None else getattr(searcher, "name", "searcher"),
        num_queries=len(queries),
        total_seconds=total_seconds,
        stats=total_stats,
        results_by_query=results_by_query,
    )
