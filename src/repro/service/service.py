"""A thread-safe, long-running search service over a loaded searcher.

Every prior entry point of the library is batch-shaped: load, run,
exit.  :class:`SearchService` is the resident layer for serving a
*stream* of queries:

* **Bounded worker pool.**  ``max_workers`` daemon threads drain a
  bounded admission queue.  Searches are pure Python, so threads do not
  add CPU parallelism under the GIL — what they add is *concurrency*:
  requests overlap with I/O-bound callers (the HTTP front-end), slow
  searches don't block admission, and deadlines fire on time.  For CPU
  scaling, front several service processes with any HTTP balancer, or
  use :class:`~repro.parallel.ParallelExecutor` for batch workloads.
* **Admission control.**  When the queue is full, ``submit`` fails
  *immediately* with :class:`~repro.errors.ServiceOverloadError`
  carrying a retry-after estimate, instead of queueing unboundedly.
  Rejecting early keeps memory bounded and tail latency honest.
* **Deadlines and cooperative cancellation.**  A per-request timeout
  becomes a monotonic deadline; the worker checks it before starting
  and the searcher checks it *between query windows in the slide loop*
  (the ``cancel`` hook of :meth:`~repro.PKWiseSearcher.search`), so a
  doomed request stops consuming CPU mid-query instead of running to
  completion.
* **Result caching.**  An epoch-invalidated LRU
  (:class:`~repro.service.cache.ResultCache`) keyed by canonical query
  token hash + params fingerprint + index epoch.  Mutations
  (:meth:`add_document` / :meth:`remove_document`) bump the engine's
  epoch, so cached and fresh results are always pair-for-pair
  identical; a flush or compaction changes no pair, moves no epoch and
  empties nothing.
* **No index lock.**  A snapshot engine is immutable and a live one
  (:class:`~repro.ingest.LSMSearcher`) locks inside ``search``; the
  service only checks, before caching a result, that no write moved
  the epoch during the search.
* **Observability.**  All of it reports through a
  :class:`~repro.obs.MetricsRegistry`: request/latency timers,
  queue-depth gauges, cache hit/miss counters, plus the searchers' own
  phase stats — served verbatim by the HTTP front-end's ``/metrics``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Sequence

from .. import faults
from ..corpus import Document, DocumentCollection
from ..errors import (
    ConfigurationError,
    DeadlineExceededError,
    ReproError,
    SearchCancelled,
    ServiceClosedError,
    ServiceOverloadError,
)
from ..eval.harness import canonical_pair_order
from ..obs import MetricsRegistry
from ..routing import RoutingPolicy
from .cache import CacheKey, ResultCache, ResultEntry, query_token_hash

#: Floor for retry-after estimates so clients never busy-spin.
MIN_RETRY_AFTER = 0.05

#: Fallback per-request latency estimate before any request completed.
DEFAULT_LATENCY_ESTIMATE = 0.1


class ServiceResponse:
    """One served request: canonical pairs plus serving metadata."""

    __slots__ = ("entry", "pairs", "cached", "seconds", "index_epoch")

    def __init__(
        self, entry: ResultEntry, cached: bool, seconds: float, index_epoch: int
    ) -> None:
        #: The record shared with the cache (pairs + their reply JSON).
        self.entry = entry
        #: Match pairs in canonical (doc_id, data_start, query_start)
        #: order, as an immutable tuple.
        self.pairs = entry.pairs
        #: True when served from the result cache.
        self.cached = cached
        #: End-to-end seconds inside the service (admission to reply).
        self.seconds = seconds
        #: The index epoch the result reflects.
        self.index_epoch = index_epoch

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __repr__(self) -> str:
        return (
            f"ServiceResponse({len(self.pairs)} pairs, cached={self.cached}, "
            f"{self.seconds * 1e3:.2f}ms)"
        )


class ServiceFuture:
    """Handle for an admitted request; resolves to a ServiceResponse."""

    __slots__ = ("_event", "_response", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._response: ServiceResponse | None = None
        self._error: BaseException | None = None

    def result(self, timeout: float | None = None) -> ServiceResponse:
        """Block until resolved; raises the request's error if it failed."""
        if not self._event.wait(timeout):
            raise DeadlineExceededError(
                f"no response within {timeout}s (request still queued or running)"
            )
        if self._error is not None:
            raise self._error
        assert self._response is not None
        return self._response

    # Internal: called by the service worker exactly once.
    def _resolve(self, response: ServiceResponse) -> None:
        self._response = response
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


class _Request:
    """Internal queue entry."""

    __slots__ = (
        "query", "deadline", "future", "enqueued_at", "cache_key", "routing",
    )

    def __init__(
        self,
        query: Document,
        deadline: float | None,
        future: ServiceFuture,
        cache_key: CacheKey | None,
        routing=None,
    ) -> None:
        self.query = query
        self.deadline = deadline
        self.future = future
        self.enqueued_at = time.monotonic()
        self.cache_key = cache_key
        self.routing = routing


#: Sentinel that tells a worker thread to exit.
_SHUTDOWN = object()


class SearchService:
    """Serve concurrent queries from a bounded worker pool.

    Parameters
    ----------
    searcher:
        Any object satisfying the :class:`repro.api.Searcher` protocol:
        ``search(query, *, cancel=None, routing=None)`` returns an
        object with ``pairs``.  The service passes its deadline hook as
        ``cancel=`` on every uncached request and ``routing=`` (the
        mode string) exactly when the request overrides the mode.
        The first write layers an :class:`~repro.ingest.IngestStore`
        over a snapshot engine and serves that store's engine from
        then on; an engine that is not a :class:`~repro.PKWiseSearcher`
        refuses writes (``ConfigurationError``) and keeps serving.
    data:
        Optional :class:`~repro.DocumentCollection` bundled with the
        searcher; required only by :meth:`search_text` (and hence the
        HTTP front-end's ``text`` queries).
    max_workers:
        Worker threads draining the admission queue.
    max_queue:
        Bound of the admission queue.  ``submit`` beyond it raises
        :class:`~repro.errors.ServiceOverloadError`.
    cache_size:
        LRU result-cache capacity in entries; ``0`` disables caching.
    default_timeout:
        Per-request timeout (seconds) applied when ``submit`` is not
        given one; ``None`` means no deadline.
    """

    def __init__(
        self,
        searcher,
        data: DocumentCollection | None = None,
        *,
        max_workers: int = 4,
        max_queue: int = 64,
        cache_size: int = 256,
        default_timeout: float | None = None,
        name: str = "search-service",
    ) -> None:
        if max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
        if max_queue < 1:
            raise ConfigurationError(f"max_queue must be >= 1, got {max_queue}")
        if cache_size < 0:
            raise ConfigurationError(f"cache_size must be >= 0, got {cache_size}")
        self.searcher = searcher
        self.data = data
        self.name = name
        self.default_timeout = default_timeout
        self.cache = ResultCache(cache_size)
        self.started_at = time.time()
        self._params_key = repr(getattr(searcher, "params", None))
        self._metrics_lock = threading.Lock()
        self._registry = MetricsRegistry()
        self._registry.gauge("service.workers").set(max_workers)
        self._registry.gauge("service.queue_capacity").set(max_queue)
        self._completed_seconds = 0.0
        self._completed_count = 0
        self._closed = False
        self._abort = False
        self._queue: deque[_Request] = deque()
        self._queue_capacity = max_queue
        self._queue_lock = threading.Lock()
        self._queue_ready = threading.Condition(self._queue_lock)
        self._upgrade_lock = threading.Lock()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"{name}-worker-{i}", daemon=True
            )
            for i in range(max_workers)
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def index_epoch(self) -> int:
        """The engine's own mutation counter: one step per add or
        remove, none for a fold.  Monotone over the service's life (a
        store layered over a snapshot starts at the snapshot's epoch)."""
        return getattr(self.searcher, "index_epoch", 0)

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a worker."""
        return len(self._queue)

    def healthz(self) -> dict:
        """Liveness summary served by the HTTP front-end's ``/healthz``."""
        info = {
            "status": "closed" if self._closed else "ok",
            "service": self.name,
            "documents": len(getattr(self.searcher, "rank_docs", ())),
            "index_epoch": self.index_epoch,
            "queue_depth": self.queue_depth,
            "queue_capacity": self._queue_capacity,
            "workers": len(self._workers),
            "cache_entries": len(self.cache),
            "uptime_seconds": time.time() - self.started_at,
        }
        store = getattr(self.searcher, "store", None)
        if store is not None:
            info["ingest"] = {
                "memtable_docs": store.memtable_docs,
                "segments": store.num_segments,
                "tombstones": len(store.removed),
            }
        return info

    def metrics_snapshot(self) -> dict:
        """Canonical metrics record (service + cache + search counters).

        Same envelope as the CLI's ``--metrics-out`` records, so two
        serving runs of one workload diff counter for counter.
        """
        with self._metrics_lock:
            registry = MetricsRegistry.from_snapshot(self._registry.snapshot())
        self.cache.to_registry(registry, "service")
        registry.gauge("service.queue_depth_now").set(self.queue_depth)
        registry.gauge("service.index_epoch").set(self.index_epoch)
        store = getattr(self.searcher, "store", None)
        if store is not None:
            registry.merge_snapshot(store.metrics_snapshot())
        return {
            "name": self.name,
            "schema_version": 1,
            "metrics": registry.snapshot(),
        }

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _retry_after(self) -> float:
        """Estimated seconds until the queue has room again."""
        if self._completed_count:
            latency = self._completed_seconds / self._completed_count
        else:
            latency = DEFAULT_LATENCY_ESTIMATE
        backlog = self.queue_depth + len(self._workers)
        return max(MIN_RETRY_AFTER, backlog * latency / len(self._workers))

    def _cache_key(self, query: Document, routing: str | None) -> CacheKey:
        params_key = (
            self._params_key if routing is None
            else (self._params_key, routing)
        )
        return (query_token_hash(query.tokens), params_key, self.index_epoch)

    def submit(
        self,
        query: Document,
        *,
        timeout: float | None = None,
        routing=None,
    ) -> ServiceFuture:
        """Admit one query; returns a future resolving to its response.

        Fast path: a cache hit resolves the future immediately without
        touching the queue.  Otherwise the request joins the admission
        queue — or is rejected with
        :class:`~repro.errors.ServiceOverloadError` when the queue is
        at capacity.

        ``routing`` (a mode string or a :class:`~repro.RoutingPolicy`)
        overrides the searcher's routing mode for this request only;
        nothing but the mode is read and cached entries are keyed by
        it, so routed and unrouted results never mix.
        """
        if self._closed:
            raise ServiceClosedError(f"{self.name} is closed")
        if routing is not None:
            routing = RoutingPolicy.from_dict(routing).mode
        if timeout is None:
            timeout = self.default_timeout
        with self._metrics_lock:
            self._registry.counter("service.requests").inc()
        future = ServiceFuture()
        key = self._cache_key(query, routing)
        cached = self.cache.get(key)
        if cached is not None:
            with self._metrics_lock:
                self._registry.counter("service.completed").inc()
                self._registry.timer("service.request_seconds").add(0.0)
            future._resolve(
                ServiceResponse(cached, cached=True, seconds=0.0, index_epoch=key[2])
            )
            return future
        deadline = time.monotonic() + timeout if timeout is not None else None
        request = _Request(query, deadline, future, key, routing)
        with self._queue_lock:
            if self._closed:
                raise ServiceClosedError(f"{self.name} is closed")
            if len(self._queue) >= self._queue_capacity:
                retry_after = self._retry_after()
                with self._metrics_lock:
                    self._registry.counter("service.rejected").inc()
                raise ServiceOverloadError(
                    f"{self.name} admission queue full "
                    f"({self._queue_capacity} waiting); retry in "
                    f"{retry_after:.2f}s",
                    retry_after=retry_after,
                )
            self._queue.append(request)
            depth = len(self._queue)
            self._queue_ready.notify()
        with self._metrics_lock:
            gauge = self._registry.gauge("service.queue_depth")
            gauge.set(max(gauge.value, depth))
        return future

    def search(
        self,
        query: Document,
        *,
        timeout: float | None = None,
        routing=None,
    ) -> ServiceResponse:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(query, timeout=timeout, routing=routing).result()

    def search_text(
        self,
        text: str,
        *,
        timeout: float | None = None,
        routing=None,
    ) -> ServiceResponse:
        """Encode ``text`` against the bundled collection and search it."""
        if self.data is None:
            raise ReproError(
                "service has no document collection; reload the index with "
                "its data bundle (repro index saves it by default) or "
                "submit pre-encoded Document queries"
            )
        return self.search(
            self.data.encode_query(text), timeout=timeout, routing=routing
        )

    # ------------------------------------------------------------------
    # Index mutation (write side)
    # ------------------------------------------------------------------
    def _live_store(self):
        """The ingest store backing mutations, upgrading lazily.

        Every write on a :class:`SearchService` flows through a
        :class:`~repro.ingest.IngestStore` (the LSM write path).  If the
        current searcher does not carry one yet — including a frozen
        compact searcher, which is read-only on its own — the existing
        index becomes the base segment of a fresh in-memory store whose
        engine takes over, so the first write upgrades the service to
        live ingestion transparently (a query already running on the
        old engine finishes there: nothing ever mutates it).
        """
        store = getattr(self.searcher, "store", None)
        if store is not None:
            return store
        with self._upgrade_lock:
            store = getattr(self.searcher, "store", None)
            if store is None:
                from ..ingest import IngestStore

                store = IngestStore.from_searcher(self.searcher, self.data)
                self.searcher = store.searcher()
        return store

    def add_document(self, document: Document) -> int:
        """Index one more document; invalidates cached results via epoch.

        Routed through the LSM ingest write path: the document lands in
        the store's mutable memtable (upgrading a plain or frozen
        compact searcher to a tiered live view on first write) and
        becomes visible to the next search atomically.
        """
        store = self._live_store()
        doc_id = store.add_document(document)
        with self._metrics_lock:
            self._registry.counter("service.mutations").inc()
        return doc_id

    def add_text(self, text: str, name: str | None = None) -> int:
        """Tokenize ``text`` into the bundled collection and index it."""
        if self.data is None:
            raise ReproError("service has no document collection to tokenize into")
        store = self._live_store()
        if store.data is self.data:
            doc_id = store.add_text(text, name=name)
        else:
            doc_id = store.add_document(self.data.add_text(text, name=name))
        with self._metrics_lock:
            self._registry.counter("service.mutations").inc()
        return doc_id

    def remove_document(self, doc_id: int) -> None:
        """Tombstone ``doc_id``; invalidates cached results via epoch."""
        store = self._live_store()
        store.remove(doc_id)
        with self._metrics_lock:
            self._registry.counter("service.mutations").inc()

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._queue_lock:
                while not self._queue and not self._closed:
                    self._queue_ready.wait()
                if self._queue:
                    request = self._queue.popleft()
                elif self._closed:
                    return
                else:  # pragma: no cover - spurious wakeup
                    continue
            self._process(request)

    def _process(self, request: _Request) -> None:
        now = time.monotonic()
        waited = now - request.enqueued_at
        deadline = request.deadline
        if deadline is not None and now > deadline:
            with self._metrics_lock:
                self._registry.counter("service.deadline_exceeded").inc()
                self._registry.timer("service.queue_wait_seconds").add(waited)
            request.future._fail(
                DeadlineExceededError(
                    f"deadline passed after {waited * 1e3:.1f}ms in queue, "
                    f"before the search started"
                )
            )
            return

        def cancelled() -> bool:
            return self._abort or (
                deadline is not None and time.monotonic() > deadline
            )

        try:
            # Fault-injection site for the request path: an injected
            # raise surfaces through the future like any searcher error
            # (and through the HTTP front-end as a 500), which is what
            # the client-resilience tests exercise.
            faults.inject(
                "service.request", query_name=request.query.name
            )
            key = (
                request.cache_key[0],
                request.cache_key[1],
                self.index_epoch,
            )
            entry = self.cache.get(key)
            was_cached = entry is not None
            if not was_cached:
                override = (
                    {} if request.routing is None
                    else {"routing": request.routing}
                )
                result = self.searcher.search(
                    request.query, cancel=cancelled, **override
                )
                pairs = canonical_pair_order(list(result.pairs))
                # The engine locks inside search(), so a write may have
                # landed since the key was minted; store only a result
                # the key's epoch still describes.
                entry = (
                    self.cache.put(key, pairs)
                    if self.index_epoch == key[2] else ResultEntry(pairs)
                )
        except SearchCancelled as exc:
            self._finish_cancelled(request, waited, exc)
            return
        except BaseException as exc:  # searcher bugs surface to the caller
            with self._metrics_lock:
                self._registry.counter("service.errors").inc()
            request.future._fail(exc)
            return

        elapsed = time.monotonic() - request.enqueued_at
        stats = None if was_cached else getattr(result, "stats", None)
        with self._metrics_lock:
            self._registry.counter("service.completed").inc()
            self._registry.timer("service.request_seconds").add(elapsed)
            self._registry.timer("service.queue_wait_seconds").add(waited)
            if stats is not None:
                stats.to_registry(self._registry)
            self._completed_seconds += elapsed
            self._completed_count += 1
        request.future._resolve(
            ServiceResponse(
                entry, cached=was_cached, seconds=elapsed, index_epoch=key[2]
            )
        )

    def _finish_cancelled(
        self, request: _Request, waited: float, exc: SearchCancelled
    ) -> None:
        with self._metrics_lock:
            self._registry.timer("service.queue_wait_seconds").add(waited)
        if self._abort and (
            request.deadline is None or time.monotonic() <= request.deadline
        ):
            with self._metrics_lock:
                self._registry.counter("service.cancelled").inc()
            request.future._fail(
                ServiceClosedError(f"{self.name} closed mid-search ({exc})")
            )
        else:
            with self._metrics_lock:
                self._registry.counter("service.deadline_exceeded").inc()
            request.future._fail(
                DeadlineExceededError(
                    f"deadline passed after {exc.windows_processed} query "
                    f"windows; partial work discarded"
                )
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, *, drain: bool = True) -> None:
        """Stop the service.

        ``drain=True`` (default) lets queued requests finish; with
        ``drain=False`` queued requests fail with
        :class:`~repro.errors.ServiceClosedError` and running searches
        are cancelled at their next slide-loop check.  Idempotent.
        """
        with self._queue_lock:
            if self._closed:
                return
            self._closed = True
            abandoned: list[_Request] = []
            if not drain:
                self._abort = True
                abandoned = list(self._queue)
                self._queue.clear()
            self._queue_ready.notify_all()
        for request in abandoned:
            request.future._fail(ServiceClosedError(f"{self.name} is closed"))
        for thread in self._workers:
            thread.join()

    def __enter__(self) -> "SearchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"SearchService({self.name!r}, workers={len(self._workers)}, "
            f"queue={self.queue_depth}/{self._queue_capacity}, "
            f"cache={self.cache!r}, closed={self._closed})"
        )
