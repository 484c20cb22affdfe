"""Scatter-gather over shard backends: failover, deadline, partial results.

Given one backend per replica of every shard of a corpus partition
(:mod:`~repro.service.plan`), a query's exact answer is the union of
the shards' answers.  This module decides the *read policy* — which
replica is asked, what happens when it fails or stalls, how replies
merge — and has no write path: a router serves the generation its
backends were started on.

* Shard backends — :class:`LocalShardBackend` wraps an in-process
  :class:`SearchService` (tests, ``Index.serve(shards=N)``);
  :class:`HTTPShardBackend` wraps a :class:`ResilientClient` to a
  worker process serving one shard snapshot (``repro serve --shards``,
  see :mod:`~repro.service.workers`).  Backends carry a ``replica``
  index; the router groups backends with the same ``shard_id`` into a
  :class:`ReplicaSet`.
* :class:`ShardRouter` — scatters every query to **one replica per
  shard**, gathers replies, maps shard-local doc ids back to global
  ids, and merges in the existing canonical pair order (shards own
  disjoint ascending id ranges and each reply is already canonically
  ordered, so the merge is an order-preserving concatenation).
  Per-query deadlines bound the gather; a *failed* replica fails over
  to the next replica of the same shard *before* the shard is declared
  dead, so with R >= 2 a single worker death costs zero queries
  (``router.failovers`` counts these).  At most one attempt per shard
  is in flight.  Only when every replica of a shard has failed does
  the shard become a :class:`~repro.eval.harness.QueryFailure` on the
  response — callers get partial results plus an explicit account of
  what is missing.
* Result cache — a *complete* response is kept in the router's
  :class:`~repro.service.cache.ResultCache` (``cache_size``), the one
  cache tier of a sharded deployment: shards run without one, since
  the router answers every repeat.  A repeated query costs no
  sub-request and is answered even with shards down.  A partial
  response is never stored: its repeat re-scatters.
  :meth:`ShardRouter.replace_replica` strands every entry.
* Self-healing — :class:`~repro.service.supervisor.ShardSupervisor`
  heals dead replicas through :meth:`ShardRouter.mark_replica_down`,
  :meth:`~ShardRouter.replace_replica` and
  :meth:`~ShardRouter.readmit_replica`.

Fault-injection points: ``shards.scatter`` (per sub-request, context
``shard=<id>, replica=<r>``), ``shards.failover`` (before each
failover sub-request, same context), ``shards.gather`` (per responding
shard, ``shard=<id>``).

The router duck-types the read side of the service surface
(``search`` / ``search_text`` / ``healthz`` / ``metrics_snapshot`` /
``close``), so :func:`repro.service.http.serve_http` fronts a router
as it fronts a single service — except ``POST /ingest`` and
``/remove``, which answer 405 on a router; ``/metrics`` merges the
per-replica registries into one deterministic aggregate
(:meth:`ShardRouter.metrics_snapshot`) and ``/healthz`` grades the
deployment ``ok`` / ``degraded`` / ``down`` (:meth:`ShardRouter.healthz`).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import NamedTuple

from .. import faults
from ..core.base import MatchPair
from ..core.pkwise import PKWiseSearcher
from ..corpus import Document, DocumentCollection
from ..errors import (
    ConfigurationError,
    DeadlineExceededError,
    ReproError,
    ServiceClosedError,
    ServiceError,
)
from ..eval.harness import QueryFailure
from ..obs import MetricsRegistry
from ..params import SearchParams
from ..routing import RoutingPolicy
from .cache import ResultCache, ResultEntry, query_token_hash
from .client import ResilientClient
from .plan import partition_ranges
from .service import SearchService, ServiceResponse


# ----------------------------------------------------------------------
# Shard backends
# ----------------------------------------------------------------------
class _ShardReply(NamedTuple):
    """Normalized per-shard result: shard-local pairs + the shard's epoch."""

    pairs: tuple
    index_epoch: int


class LocalShardBackend:
    """One shard served by an in-process :class:`SearchService`."""

    def __init__(
        self,
        service: SearchService,
        *,
        shard_id: int,
        doc_lo: int,
        doc_hi: int,
        replica: int = 0,
    ) -> None:
        self.service = service
        self.shard_id = shard_id
        self.doc_lo = doc_lo
        self.doc_hi = doc_hi
        self.replica = replica

    def search(
        self, query: Document, *, timeout: float | None, routing=None
    ) -> _ShardReply:
        response = self.service.search(query, timeout=timeout, routing=routing)
        return _ShardReply(response.pairs, response.index_epoch)

    def healthz(self) -> dict:
        return self.service.healthz()

    def metrics_snapshot(self) -> dict:
        return self.service.metrics_snapshot()

    def describe(self) -> dict:
        return {"backend": "local", "service": self.service.name}

    def close(self) -> None:
        self.service.close()

    def __repr__(self) -> str:
        return (
            f"LocalShardBackend(shard={self.shard_id}, r{self.replica}, "
            f"docs=[{self.doc_lo},{self.doc_hi}))"
        )


class HTTPShardBackend:
    """One shard served by a worker process over the HTTP front-end.

    Sub-requests go through a :class:`ResilientClient` (its retries
    absorb transient transport faults).  The client's per-call deadline
    is left unbounded —
    the router enforces the per-query deadline at the gather side and
    abandons the shard past it.
    """

    def __init__(
        self,
        base_url: str,
        *,
        shard_id: int,
        doc_lo: int,
        doc_hi: int,
        replica: int = 0,
        retries: int,
        pid: int | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.shard_id = shard_id
        self.doc_lo = doc_lo
        self.doc_hi = doc_hi
        self.replica = replica
        self.pid = pid
        self._client = ResilientClient(base_url, retries=retries, deadline=None)

    def search(
        self, query: Document, *, timeout: float | None, routing=None
    ) -> _ShardReply:
        reply = self._client.search(
            token_ids=list(query.tokens), timeout=timeout, routing=routing
        )
        pairs = tuple(MatchPair(*pair) for pair in reply.get("pairs", ()))
        return _ShardReply(pairs, int(reply.get("index_epoch", 0)))

    def healthz(self) -> dict:
        return self._client.healthz()

    def metrics_snapshot(self) -> dict:
        return self._client.metrics()

    def describe(self) -> dict:
        info = {"backend": "http", "url": self.base_url}
        if self.pid is not None:
            info["pid"] = self.pid
        return info

    def close(self) -> None:
        """The worker process belongs to its supervisor; nothing to do."""

    def __repr__(self) -> str:
        return (
            f"HTTPShardBackend(shard={self.shard_id}, r{self.replica}, "
            f"{self.base_url!r}, docs=[{self.doc_lo},{self.doc_hi}))"
        )


# ----------------------------------------------------------------------
# Replica sets
# ----------------------------------------------------------------------
class ReplicaSet:
    """All replicas of one shard: same doc range, same snapshot.

    The router scatters to one replica per shard and fails over through
    the rest.  ``down`` holds replica indices the router (or the
    supervisor) has marked unhealthy; :meth:`preference_order` lists
    healthy replicas first so a fresh query never starts on a replica
    known to be dead — down replicas stay at the tail as a last resort
    (they may have come back since the marker was set).
    """

    def __init__(self, shard_id: int, backends: Sequence) -> None:
        if not backends:
            raise ConfigurationError(f"shard {shard_id} has no replicas")
        ranges = {(b.doc_lo, b.doc_hi) for b in backends}
        if len(ranges) != 1:
            raise ConfigurationError(
                f"shard {shard_id} replicas disagree on doc range: "
                f"{sorted(ranges)}"
            )
        self.shard_id = shard_id
        self.doc_lo = backends[0].doc_lo
        self.doc_hi = backends[0].doc_hi
        # Stable replica numbering: order by the backends' replica index
        # (the sort keeps listing order among equals), then renumber
        # densely 0..R-1 so failover order and metrics labels are
        # deterministic.
        self.replicas = sorted(backends, key=lambda backend: backend.replica)
        for index, backend in enumerate(self.replicas):
            backend.replica = index
        self.down: set[int] = set()

    def __len__(self) -> int:
        return len(self.replicas)

    def preference_order(self) -> list:
        healthy = [b for b in self.replicas if b.replica not in self.down]
        downed = [b for b in self.replicas if b.replica in self.down]
        return healthy + downed

    def __repr__(self) -> str:
        return (
            f"ReplicaSet(shard={self.shard_id}, replicas={len(self.replicas)}, "
            f"down={sorted(self.down)}, docs=[{self.doc_lo},{self.doc_hi}))"
        )


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
class RouterResponse(ServiceResponse):
    """A gathered scatter response: merged pairs + per-shard account.

    ``pairs`` hold *global* doc ids in canonical order.  ``failures``
    lists one :class:`~repro.eval.harness.QueryFailure` per shard that
    failed or missed the deadline (``position`` is the shard id);
    ``partial`` is True when any shard is missing.  ``index_epoch`` is
    the sum of the responding shards' epochs — it changes whenever any
    shard's state does.
    """

    __slots__ = ("failures", "shard_epochs")

    def __init__(
        self,
        entry: ResultEntry,
        cached: bool,
        seconds: float,
        index_epoch: int,
        failures: Sequence[QueryFailure] = (),
        shard_epochs: dict | None = None,
    ) -> None:
        super().__init__(entry, cached, seconds, index_epoch)
        self.failures = list(failures)
        self.shard_epochs = dict(shard_epochs or {})

    @property
    def partial(self) -> bool:
        return bool(self.failures)

    def __repr__(self) -> str:
        return (
            f"RouterResponse({len(self.pairs)} pairs, cached={self.cached}, "
            f"shards={len(self.shard_epochs)}, "
            f"failures={len(self.failures)})"
        )


class ShardRouter:
    """Scatter-gather front over N shard backends.

    Duck-types the :class:`SearchService` surface so the HTTP front-end
    (:func:`~repro.service.http.serve_http`) and existing clients work
    unchanged.  See the module docstring for semantics.

    Parameters
    ----------
    backends:
        Shard backends; backends sharing a ``shard_id`` are replicas of
        the same shard (identical doc range).  The per-shard ranges
        must be disjoint, contiguous, and tile ``[0, num_documents)``.
    data:
        Collection used to encode ``search_text`` queries (any shard
        subset works — subsets share the parent vocabulary).
    default_timeout:
        Per-query deadline (seconds) across scatter + gather when the
        caller passes none.  ``None`` = wait for every shard.
    cache_size:
        Entries in the router's own result cache; ``0`` disables it.
    """

    def __init__(
        self,
        backends: Sequence,
        data: DocumentCollection | None = None,
        *,
        default_timeout: float | None = None,
        cache_size: int = 256,
        name: str = "shard-router",
    ) -> None:
        backends = list(backends)
        if not backends:
            raise ConfigurationError("a ShardRouter needs at least one backend")
        grouped: dict[int, list] = {}
        for backend in backends:
            grouped.setdefault(backend.shard_id, []).append(backend)
        sets = sorted(
            (ReplicaSet(shard_id, group) for shard_id, group in grouped.items()),
            key=lambda rset: rset.doc_lo,
        )
        previous_hi = 0
        for rset in sets:
            if rset.doc_lo != previous_hi:
                raise ConfigurationError(
                    f"shard {rset.shard_id} starts at doc {rset.doc_lo}, "
                    f"expected {previous_hi} (ranges must tile the corpus)"
                )
            previous_hi = rset.doc_hi
        self._sets = sets
        self._by_id = {rset.shard_id: rset for rset in sets}
        self.data = data
        self.name = name
        self.default_timeout = default_timeout
        self.started_at = time.time()
        self._closed = False
        self._supervisor = None
        # Four threads per backend: room for failovers plus concurrent
        # callers.
        self._pool = ThreadPoolExecutor(
            max_workers=4 * len(backends),
            thread_name_prefix=f"{name}-scatter",
        )
        self._metrics_lock = threading.Lock()
        self._health_lock = threading.Lock()
        self._registry = MetricsRegistry()
        self._registry.gauge("router.shards").set(len(sets))
        self._registry.gauge("router.replicas").set(len(backends))
        self._last_epochs = {rset.shard_id: 0 for rset in sets}
        self.cache = ResultCache(cache_size)
        self._replacements = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def local(
        cls,
        data: DocumentCollection,
        params: SearchParams,
        *,
        shards: int,
        replicas: int = 1,
        default_timeout: float | None = None,
        cache_size: int = 256,
        name: str = "shard-router",
        **service_kwargs,
    ) -> "ShardRouter":
        """Build an in-process router: one :class:`SearchService` per replica.

        Every replica of a shard gets its *own* searcher over the same
        document subset, mirroring the process isolation of worker
        replicas — no searcher state (lazy routing tiers) is shared
        through one object.  ``cache_size`` sizes the router's result
        cache; the services run without one, as shard workers do.
        """
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        sizes = data.lengths()
        ranges = partition_ranges(sizes, shards)
        backends = []
        for shard_id, (lo, hi) in enumerate(ranges):
            subset = data.subset(range(lo, hi))
            for replica in range(replicas):
                service = SearchService(
                    PKWiseSearcher(subset, params),
                    subset,
                    name=f"{name}-shard-{shard_id:03d}-r{replica}",
                    cache_size=0,
                    **service_kwargs,
                )
                backends.append(
                    LocalShardBackend(
                        service,
                        shard_id=shard_id,
                        doc_lo=lo,
                        doc_hi=hi,
                        replica=replica,
                    )
                )
        return cls(
            backends,
            data,
            default_timeout=default_timeout,
            cache_size=cache_size,
            name=name,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backends(self) -> tuple:
        """Primary (replica-0) backend of every shard, in doc order."""
        return tuple(rset.replicas[0] for rset in self._sets)

    @property
    def replica_sets(self) -> tuple:
        return tuple(self._sets)

    @property
    def num_shards(self) -> int:
        return len(self._sets)

    @property
    def index_epoch(self) -> int:
        """Sum of the last-observed per-shard epochs (monotone)."""
        return sum(self._last_epochs.values())

    def _cache_epoch(self) -> int:
        """Epoch of the router's cache keys (monotone): a shard seen at
        a newer epoch or a replaced replica — which may serve a newer
        generation — strands every entry minted before it."""
        return self.index_epoch + self._replacements

    # ------------------------------------------------------------------
    # Replica health (used by the failover path and the supervisor)
    # ------------------------------------------------------------------
    def mark_replica_down(self, shard_id: int, replica: int) -> None:
        """Deprioritize a replica: new queries try it last, not first."""
        rset = self._require_set(shard_id)
        with self._health_lock:
            rset.down.add(replica)
            self._update_down_gauge()

    def readmit_replica(self, shard_id: int, replica: int) -> None:
        """Clear a replica's down marker so it leads rotation again."""
        rset = self._require_set(shard_id)
        with self._health_lock:
            rset.down.discard(replica)
            self._update_down_gauge()

    def replace_replica(self, shard_id: int, replica: int, backend) -> None:
        """Swap in a fresh backend for one replica slot (same doc range).

        Used by the supervisor after restarting a dead worker: the new
        backend points at the restarted process.  The slot keeps its
        down marker until :meth:`readmit_replica` — callers re-admit
        only after the replacement passes its health checks.
        """
        rset = self._require_set(shard_id)
        if (backend.doc_lo, backend.doc_hi) != (rset.doc_lo, rset.doc_hi):
            raise ConfigurationError(
                f"replacement for shard {shard_id} covers "
                f"[{backend.doc_lo},{backend.doc_hi}), replica set owns "
                f"[{rset.doc_lo},{rset.doc_hi})"
            )
        if backend.shard_id != shard_id:
            raise ConfigurationError(
                f"replacement carries shard_id {backend.shard_id}, "
                f"expected {shard_id}"
            )
        backend.replica = replica
        with self._health_lock:
            for position, existing in enumerate(rset.replicas):
                if existing.replica == replica:
                    rset.replicas[position] = backend
                    break
            else:
                raise ConfigurationError(
                    f"shard {shard_id} has no replica {replica} to replace"
                )
            self._replacements += 1
        with self._metrics_lock:
            self._registry.counter("router.replica_replacements").inc()

    def attach_supervisor(self, supervisor) -> None:
        """Surface a supervisor's status in healthz/metrics."""
        self._supervisor = supervisor

    def _require_set(self, shard_id: int) -> ReplicaSet:
        rset = self._by_id.get(shard_id)
        if rset is None:
            raise ConfigurationError(f"unknown shard id {shard_id}")
        return rset

    def _update_down_gauge(self) -> None:
        # Caller holds _health_lock.  Gauges merge by max across
        # snapshots, so this records the worst observed outage depth.
        total_down = sum(len(rset.down) for rset in self._sets)
        with self._metrics_lock:
            self._registry.gauge("router.replicas_down").set(total_down)

    def _note_replica_failure(self, backend) -> None:
        with self._health_lock:
            rset = self._by_id[backend.shard_id]
            rset.down.add(backend.replica)
            self._update_down_gauge()
        with self._metrics_lock:
            self._registry.counter("router.replica_failures").inc()
            self._registry.counter(
                f"router.replica_failures.shard{backend.shard_id:03d}"
                f".r{backend.replica}"
            ).inc()

    def _note_replica_success(self, backend) -> None:
        rset = self._by_id[backend.shard_id]
        if backend.replica in rset.down:
            with self._health_lock:
                rset.down.discard(backend.replica)
                self._update_down_gauge()

    def healthz(self) -> dict:
        """Router liveness: aggregate status plus one entry per shard.

        ``status`` is ``ok`` only when *every replica of every shard*
        answers ok; ``degraded`` while at least one shard is reachable
        (queries still get answers — partial at worst, complete
        whenever each shard keeps one live replica).  The HTTP
        front-end maps ``ok``/``degraded`` to 200 — a degraded router
        still answers queries, so balancers must not eject it — and
        reserves 503 for ``down`` (no shard reachable) and ``closed``.
        """
        shards = []
        shards_reachable = 0
        shards_fully_ok = 0
        for rset in self._sets:
            replica_entries = []
            replicas_ok = 0
            for backend in rset.replicas:
                entry = {"replica": backend.replica}
                entry.update(backend.describe())
                try:
                    health = backend.healthz()
                except Exception as exc:  # noqa: BLE001 - failure = unreachable
                    entry["status"] = "unreachable"
                    entry["error"] = str(exc)
                else:
                    entry["status"] = health.get("status", "unknown")
                    entry["documents"] = health.get("documents")
                    entry["index_epoch"] = health.get("index_epoch")
                    if entry["status"] == "ok":
                        replicas_ok += 1
                replica_entries.append(entry)
            if replicas_ok == len(rset.replicas):
                shard_status = "ok"
            elif replicas_ok:
                shard_status = "degraded"
            else:
                shard_status = "down"
            if replicas_ok:
                shards_reachable += 1
            if shard_status == "ok":
                shards_fully_ok += 1
            shards.append(
                {
                    "shard_id": rset.shard_id,
                    "doc_lo": rset.doc_lo,
                    "doc_hi": rset.doc_hi,
                    "status": shard_status,
                    "replicas_ok": replicas_ok,
                    "num_replicas": len(rset.replicas),
                    "replicas": replica_entries,
                }
            )
        if self._closed:
            status = "closed"
        elif shards_fully_ok == len(self._sets):
            status = "ok"
        elif shards_reachable:
            status = "degraded"
        else:
            status = "down"
        payload = {
            "status": status,
            "service": self.name,
            "num_shards": len(self._sets),
            "shards_ok": shards_reachable,
            "documents": self._sets[-1].doc_hi,
            "index_epoch": self.index_epoch,
            "cache_entries": len(self.cache),
            "uptime_seconds": time.time() - self.started_at,
            "shards": shards,
        }
        if self._supervisor is not None:
            payload["supervisor"] = self._supervisor.status()
        return payload

    def metrics_snapshot(self) -> dict:
        """Router counters + every replica's registry, merged.

        Counters and timers sum across replicas (deterministic for a
        deterministic workload), gauges keep the maximum — the same
        envelope a single service's ``metrics_snapshot`` has.
        A supervisor attached via :meth:`attach_supervisor` contributes
        its restart/readmit/quarantine counters too.
        """
        with self._metrics_lock:
            registry = MetricsRegistry.from_snapshot(self._registry.snapshot())
        self.cache.to_registry(registry, "router")
        for rset in self._sets:
            for backend in rset.replicas:
                try:
                    snapshot = backend.metrics_snapshot()
                except Exception:  # noqa: BLE001 - a dead replica has no metrics
                    registry.counter("router.metrics_unavailable").inc()
                    continue
                registry.merge_snapshot(snapshot.get("metrics", {}))
        if self._supervisor is not None:
            registry.merge_snapshot(self._supervisor.metrics_registry.snapshot())
        return {
            "name": self.name,
            "schema_version": 1,
            "metrics": registry.snapshot(),
        }

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def search(
        self,
        query: Document,
        *,
        timeout: float | None = None,
        routing=None,
    ) -> RouterResponse:
        """Scatter ``query`` to every shard and gather a merged response.

        Raises only when *no* shard responded (the last shard error is
        chained); otherwise missing shards are reported on
        ``response.failures`` and the merged pairs cover the shards
        that answered.  ``routing`` is forwarded to every shard as its
        per-request fingerprint routing override.  A repeat of a
        completely answered query (same tokens, routing mode and epoch)
        is served from the router's result cache with no sub-request.
        """
        if self._closed:
            raise ServiceClosedError(f"{self.name} is closed")
        if routing is not None:
            routing = RoutingPolicy.from_dict(routing).mode
        if timeout is None:
            timeout = self.default_timeout
        start = time.monotonic()
        deadline_at = start + timeout if timeout is not None else None
        with self._metrics_lock:
            self._registry.counter("router.requests").inc()
        key = (query_token_hash(query.tokens), routing, self._cache_epoch())
        entry = self.cache.get(key)
        if entry is not None:
            return self._respond(entry, True, start, self._last_epochs)
        results, failures, last_error = self._scatter_gather(
            query, deadline_at, routing
        )
        if not results:
            with self._metrics_lock:
                self._registry.counter("router.errors").inc()
            error = ServiceError(
                f"all {len(self._sets)} shard(s) failed for query "
                f"{query.name or query.doc_id}: "
                + "; ".join(f.error_message for f in failures)
            )
            error.failures = failures
            raise error from last_error
        pairs: list[MatchPair] = []
        shard_epochs: dict[int, int] = {}
        for rset in self._sets:
            reply = results.get(rset.shard_id)
            if reply is None:
                continue
            faults.inject("shards.gather", shard=rset.shard_id)
            shard_epochs[rset.shard_id] = reply.index_epoch
            self._last_epochs[rset.shard_id] = max(
                self._last_epochs[rset.shard_id], reply.index_epoch
            )
            offset = rset.doc_lo
            # Shard-local doc ids renumber from 0 within [doc_lo, doc_hi);
            # adding the offset restores global ids.  Ranges ascend and
            # every reply is canonically ordered, so appending in shard
            # order keeps the merged list canonical without a re-sort.
            pairs.extend(
                MatchPair(pair[0] + offset, pair[1], pair[2], pair[3])
                for pair in reply.pairs
            )
        # Only a complete response is stored (after a failed shard the
        # repeat re-scatters), and only under an epoch the gather did
        # not move.
        entry = (
            self.cache.put(key, pairs)
            if not failures and self._cache_epoch() == key[2]
            else ResultEntry(pairs)
        )
        return self._respond(entry, False, start, shard_epochs, failures)

    def _respond(
        self, entry: ResultEntry, cached: bool, start: float,
        shard_epochs: dict, failures: Sequence[QueryFailure] = (),
    ) -> RouterResponse:
        elapsed = time.monotonic() - start
        with self._metrics_lock:
            self._registry.counter("router.completed").inc()
            self._registry.timer("router.request_seconds").add(elapsed)
            if failures:
                self._registry.counter("router.partial_responses").inc()
                self._registry.counter("router.shard_failures").inc(len(failures))
        return RouterResponse(
            entry, cached, elapsed, sum(shard_epochs.values()),
            failures, shard_epochs,
        )

    def search_text(
        self, text: str, *, timeout: float | None = None, routing=None
    ) -> RouterResponse:
        """Encode ``text`` (any shard vocabulary works) and search it."""
        if self.data is None:
            raise ReproError(
                "router has no document collection to encode text queries; "
                "submit pre-encoded Document queries instead"
            )
        return self.search(
            self.data.encode_query(text), timeout=timeout, routing=routing
        )

    # ------------------------------------------------------------------
    def _shard_call(
        self,
        backend,
        query: Document,
        deadline_at: float | None,
        routing,
        is_failover: bool,
    ):
        if is_failover:
            faults.inject(
                "shards.failover",
                shard=backend.shard_id,
                replica=backend.replica,
            )
        faults.inject(
            "shards.scatter", shard=backend.shard_id, replica=backend.replica
        )
        timeout = None
        if deadline_at is not None:
            timeout = max(1e-3, deadline_at - time.monotonic())
        return backend.search(query, timeout=timeout, routing=routing)

    def _shard_failure(
        self, query: Document, shard_id: int, error: Exception, attempts: int
    ) -> QueryFailure:
        return QueryFailure(
            position=shard_id,
            query_id=query.doc_id,
            query_name=f"{query.name or 'query'}@shard-{shard_id:03d}",
            error_type=type(error).__name__,
            error_message=str(error),
            attempts=attempts,
        )

    def _scatter_gather(
        self, query: Document, deadline_at: float | None, routing=None
    ):
        """Fan out one sub-request per shard; fail over, collect.

        Per shard the replicas form a preference list (healthy first).
        The first replica is tried immediately; a *failed* attempt moves
        on to the next replica (``router.failovers``), so a shard fails
        only once all of its replicas have failed or the deadline
        passes.  At most one attempt per shard is in flight.
        """
        with self._health_lock:
            order = {rset.shard_id: rset.preference_order() for rset in self._sets}
        attempts = dict.fromkeys(order, 0)
        errors: dict[int, Exception] = {}
        outstanding: dict = {}  # future -> (shard_id, backend)
        results: dict[int, _ShardReply] = {}
        failures: list[QueryFailure] = []
        last_error: Exception | None = None

        def submit(shard_id: int, *, is_failover: bool) -> None:
            backend = order[shard_id][attempts[shard_id]]
            attempts[shard_id] += 1
            future = self._pool.submit(
                self._shard_call, backend, query, deadline_at, routing,
                is_failover,
            )
            outstanding[future] = (shard_id, backend)

        for shard_id in order:
            submit(shard_id, is_failover=False)
        while outstanding:
            wait_timeout = None
            if deadline_at is not None:
                wait_timeout = deadline_at - time.monotonic()
                if wait_timeout <= 0:
                    break
            done, _ = wait(
                outstanding, timeout=wait_timeout, return_when=FIRST_COMPLETED
            )
            for future in done:
                shard_id, backend = outstanding.pop(future)
                try:
                    results[shard_id] = future.result()
                except Exception as exc:  # noqa: BLE001 - per-replica isolation
                    errors[shard_id] = exc
                    last_error = exc
                    self._note_replica_failure(backend)
                    if attempts[shard_id] < len(order[shard_id]):
                        # Untried replicas remain: fail over before the
                        # shard is declared dead.
                        with self._metrics_lock:
                            self._registry.counter("router.failovers").inc()
                        submit(shard_id, is_failover=True)
                    else:
                        failures.append(
                            self._shard_failure(
                                query, shard_id, exc, attempts[shard_id]
                            )
                        )
                else:
                    self._note_replica_success(backend)
        for future, (shard_id, _backend) in outstanding.items():
            future.cancel()  # best effort; a late reply is discarded
            error = errors.get(shard_id)
            if error is None:
                error = DeadlineExceededError(
                    f"shard {shard_id} did not reply within the per-query "
                    f"deadline"
                )
                last_error = error
            failures.append(
                self._shard_failure(query, shard_id, error, attempts[shard_id])
            )
        failures.sort(key=lambda failure: failure.position)
        return results, failures, last_error

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop routing, then close every backend.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._supervisor is not None:
            self._supervisor.stop()
        self._pool.shutdown(wait=True)
        for rset in self._sets:
            for backend in rset.replicas:
                backend.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardRouter({self.name!r}, shards={len(self._sets)}, "
            f"replicas={[len(rset) for rset in self._sets]}, "
            f"closed={self._closed})"
        )
