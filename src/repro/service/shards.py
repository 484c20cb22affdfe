"""Sharded scatter-gather serving with rolling snapshot swaps.

One :class:`~repro.service.SearchService` caps corpus size at a single
worker's RSS and throughput at a single GIL.  The pkwise algorithm is
exact and embarrassingly partitionable by document: a query's match
pairs against a corpus are exactly the union of its pairs against any
disjoint document partition of that corpus (each pair involves one data
document; per-shard global orders may differ but verification is
order-independent).  This module exploits that:

* :class:`ShardPlan` — partition a collection into N contiguous doc-id
  ranges balanced by token count, build one compact snapshot per
  range, and persist a JSON manifest (``shards.json``) mapping ranges →
  generation-named shard files
  (:func:`~repro.persistence.generation_name`).  The plan also records
  a ``replicas`` dimension: R workers per shard, all mapping the same
  generation-named snapshot.
* Shard backends — :class:`LocalShardBackend` wraps an in-process
  :class:`SearchService` (tests, ``Index.serve(shards=N)``);
  :class:`HTTPShardBackend` wraps a :class:`ResilientClient` to a
  worker process serving one shard snapshot (``repro serve --shards``
  spawns them via :func:`spawn_shard_workers`).  Backends carry a
  ``replica`` index; the router groups backends with the same
  ``shard_id`` into a :class:`ReplicaSet`.
* :class:`ShardRouter` — scatters every query to **one replica per
  shard**, gathers replies, maps shard-local doc ids back to global
  ids, and merges in the existing canonical pair order (shards own
  disjoint ascending id ranges and each reply is already canonically
  ordered, so the merge is an order-preserving concatenation).
  Per-query deadlines bound the gather; one **hedged request** per slow
  shard fires after ``hedge_after`` seconds; a *failed* replica fails
  over to the next replica of the same shard *before* the shard is
  declared dead, so with R >= 2 a single worker death costs zero
  queries (``router.failovers`` counts these).  Only when every replica
  of a shard has failed does the shard become a
  :class:`~repro.eval.harness.QueryFailure` on the response — callers
  get partial results plus an explicit account of what is missing.
* Self-healing — :class:`~repro.service.supervisor.ShardSupervisor`
  owns the worker processes, restarts dead ones from their snapshot,
  and re-admits them via :meth:`ShardRouter.replace_replica` /
  :meth:`ShardRouter.readmit_replica` only after a health *and*
  generation-consistency check.
* Rolling swap — :meth:`ShardRouter.rolling_swap` walks a freshly
  built generation through :meth:`SearchService.swap_searcher` one
  replica at a time: the new snapshot is mapped, the write lock drains
  in-flight readers, the epoch jumps past the old generation (so the
  result cache can never serve stale pairs), and the old mapping is
  dropped.  Serving never stops; each request observes exactly one
  generation per shard.

Fault-injection points: ``shards.scatter`` (per sub-request, context
``shard=<id>, replica=<r>``), ``shards.failover`` (before each
failover sub-request, same context), ``shards.gather`` (per responding
shard, ``shard=<id>``), ``shards.swap`` (per shard swap,
``shard=<id>``).

The router duck-types the service surface (``search`` /
``search_text`` / ``healthz`` / ``metrics_snapshot`` / ``close``), so
:func:`repro.service.http.serve_http` fronts a router exactly as it
fronts a single service; ``/metrics`` merges the per-replica registries
into one deterministic aggregate.  ``/healthz`` reports ``ok`` only
when every replica of every shard is healthy, ``degraded`` while any
shard still has at least one live replica (HTTP 200 — the node is
still answering queries; load balancers must not eject it), and
``down``/``closed`` (HTTP 503) when no query can be answered.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import sys
import tempfile
import threading
import time
from collections.abc import Sequence
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

from .. import faults
from ..core.base import MatchPair, SearchStats
from ..core.pkwise import PKWiseSearcher
from ..corpus import Document, DocumentCollection
from ..errors import (
    ConfigurationError,
    DeadlineExceededError,
    ReproError,
    ServiceClosedError,
    ServiceError,
    WorkerStartupError,
)
from ..eval.harness import AggregateRun, QueryFailure
from ..obs import MetricsRegistry
from ..params import SearchParams
from ..persistence import generation_name, load_bundle, save_searcher
from .client import ResilientClient
from .service import SearchService, ServiceResponse

#: Manifest file name inside a shard directory.
MANIFEST_NAME = "shards.json"

#: Manifest format marker (bump on incompatible layout changes).
MANIFEST_FORMAT = "repro-shard-manifest"
MANIFEST_VERSION = 1


def partition_ranges(
    sizes: Sequence[int], num_shards: int
) -> list[tuple[int, int]]:
    """Split ``len(sizes)`` documents into contiguous ``[lo, hi)`` ranges.

    Greedy balance by token count: each shard takes documents while
    adding the next one moves its total closer to the ideal share of
    the remaining tokens, subject to every remaining shard getting at
    least one document.  Deterministic for a given input.
    """
    num_docs = len(sizes)
    if num_shards < 1:
        raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards > num_docs:
        raise ConfigurationError(
            f"cannot split {num_docs} document(s) into {num_shards} shards"
        )
    remaining_tokens = sum(sizes)
    ranges: list[tuple[int, int]] = []
    lo = 0
    for shard_id in range(num_shards):
        shards_left = num_shards - shard_id
        # Leave at least one document for every shard after this one.
        max_hi = num_docs - (shards_left - 1)
        target = remaining_tokens / shards_left
        hi = lo + 1  # every shard owns at least one document
        taken = sizes[lo]
        while hi < max_hi and abs(taken + sizes[hi] - target) <= abs(taken - target):
            taken += sizes[hi]
            hi += 1
        ranges.append((lo, hi))
        remaining_tokens -= taken
        lo = hi
    return ranges


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a plan: a doc-id range and its snapshot file."""

    shard_id: int
    #: Global doc-id range ``[doc_lo, doc_hi)`` this shard owns; shard-
    #: local ids are ``global_id - doc_lo`` (subsets renumber from 0).
    doc_lo: int
    doc_hi: int
    #: Snapshot file name, relative to the manifest directory.
    path: str
    generation: int
    num_tokens: int = 0

    @property
    def num_documents(self) -> int:
        return self.doc_hi - self.doc_lo

    def to_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "doc_lo": self.doc_lo,
            "doc_hi": self.doc_hi,
            "path": self.path,
            "generation": self.generation,
            "num_tokens": self.num_tokens,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardSpec":
        return cls(
            shard_id=int(payload["shard_id"]),
            doc_lo=int(payload["doc_lo"]),
            doc_hi=int(payload["doc_hi"]),
            path=str(payload["path"]),
            generation=int(payload["generation"]),
            num_tokens=int(payload.get("num_tokens", 0)),
        )


@dataclass(frozen=True)
class ShardPlan:
    """A persisted partition of one corpus into compact shard snapshots.

    ``replicas`` is the serving redundancy: R workers per shard, every
    one mapping the *same* generation-named snapshot file.  Replication
    is a property of the serving topology, not of the on-disk layout —
    a plan built with one replica count can be served with another.
    """

    shards: tuple[ShardSpec, ...]
    num_documents: int
    generation: int
    params: dict
    replicas: int = 1

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def validate(self) -> None:
        """Ranges must tile ``[0, num_documents)`` without gap or overlap."""
        if self.replicas < 1:
            raise ConfigurationError(
                f"replicas must be >= 1, got {self.replicas}"
            )
        expected_lo = 0
        for spec in self.shards:
            if spec.doc_lo != expected_lo or spec.doc_hi <= spec.doc_lo:
                raise ConfigurationError(
                    f"shard {spec.shard_id} range [{spec.doc_lo}, "
                    f"{spec.doc_hi}) does not tile the corpus (expected "
                    f"lo={expected_lo})"
                )
            expected_lo = spec.doc_hi
        if expected_lo != self.num_documents:
            raise ConfigurationError(
                f"shard ranges cover {expected_lo} documents, corpus has "
                f"{self.num_documents}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        data: DocumentCollection,
        params: SearchParams,
        directory: str | Path,
        *,
        num_shards: int,
        generation: int = 1,
        replicas: int = 1,
    ) -> "ShardPlan":
        """Build ``num_shards`` compact snapshots + manifest under ``directory``.

        Each shard is built from :meth:`DocumentCollection.subset` of a
        contiguous doc-id range — subsets share the parent vocabulary,
        so every shard file can encode any query identically — and
        written as a snapshot file so workers mmap it zero-copy.
        Re-building a higher ``generation`` into the same directory
        leaves the previous generation's files in place for the rolling
        swap window.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        sizes = [len(doc) for doc in data]
        ranges = partition_ranges(sizes, num_shards)
        specs = []
        for shard_id, (lo, hi) in enumerate(ranges):
            subset = data.subset(range(lo, hi))
            searcher = PKWiseSearcher(subset, params)
            name = generation_name(f"shard-{shard_id:03d}", generation)
            save_searcher(searcher, directory / name, data=subset)
            specs.append(
                ShardSpec(
                    shard_id=shard_id,
                    doc_lo=lo,
                    doc_hi=hi,
                    path=name,
                    generation=generation,
                    num_tokens=sum(sizes[lo:hi]),
                )
            )
        plan = cls(
            shards=tuple(specs),
            num_documents=len(data),
            generation=generation,
            params={
                "w": params.w,
                "tau": params.tau,
                "k_max": params.k_max,
                "m": params.m,
            },
            replicas=replicas,
        )
        plan.validate()
        plan.save(directory)
        return plan

    def save(self, directory: str | Path) -> Path:
        """Atomically write the manifest as ``directory/shards.json``."""
        directory = Path(directory)
        payload = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "num_documents": self.num_documents,
            "num_shards": self.num_shards,
            "generation": self.generation,
            "replicas": self.replicas,
            "params": self.params,
            "shards": [spec.to_dict() for spec in self.shards],
        }
        target = directory / MANIFEST_NAME
        scratch = target.with_name(target.name + ".tmp")
        scratch.write_text(json.dumps(payload, indent=2, sort_keys=True))
        scratch.replace(target)
        return target

    @classmethod
    def load(cls, directory: str | Path) -> "ShardPlan":
        """Read and validate ``directory/shards.json``."""
        manifest = Path(directory) / MANIFEST_NAME
        if not manifest.exists():
            raise ConfigurationError(f"no shard manifest at {manifest}")
        try:
            payload = json.loads(manifest.read_text())
        except (json.JSONDecodeError, ValueError) as exc:
            raise ConfigurationError(f"corrupt shard manifest {manifest}: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("format") != MANIFEST_FORMAT:
            raise ConfigurationError(f"{manifest} is not a shard manifest")
        try:
            plan = cls(
                shards=tuple(
                    ShardSpec.from_dict(entry) for entry in payload["shards"]
                ),
                num_documents=int(payload["num_documents"]),
                generation=int(payload["generation"]),
                params=dict(payload.get("params", {})),
                # Pre-replication manifests carry no key: one worker per shard.
                replicas=int(payload.get("replicas", 1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"damaged shard manifest {manifest}: {exc!r}"
            ) from exc
        plan.validate()
        return plan

    @classmethod
    def ensure(
        cls,
        data: DocumentCollection,
        params: SearchParams,
        directory: str | Path,
        *,
        num_shards: int,
        replicas: int = 1,
    ) -> "ShardPlan":
        """Reuse a compatible manifest in ``directory`` or build one.

        A manifest that matches in every way except ``replicas`` is
        reused with the new replica count (snapshot files are shared by
        all replicas of a shard, so changing R is a manifest-only edit).
        """
        directory = Path(directory)
        if (directory / MANIFEST_NAME).exists():
            try:
                plan = cls.load(directory)
            except ConfigurationError:
                plan = None
            if (
                plan is not None
                and plan.num_shards == num_shards
                and plan.num_documents == len(data)
                and plan.params
                == {
                    "w": params.w,
                    "tau": params.tau,
                    "k_max": params.k_max,
                    "m": params.m,
                }
                and all((directory / spec.path).exists() for spec in plan.shards)
            ):
                if plan.replicas != replicas:
                    plan = replace(plan, replicas=replicas)
                    plan.validate()
                    plan.save(directory)
                return plan
        return cls.build(
            data, params, directory, num_shards=num_shards, replicas=replicas
        )


# ----------------------------------------------------------------------
# Shard backends
# ----------------------------------------------------------------------
class _ShardReply(NamedTuple):
    """Normalized per-shard result: shard-local pairs + serving metadata."""

    pairs: tuple
    cached: bool
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
        return _ShardReply(response.pairs, response.cached, response.index_epoch)

    def healthz(self) -> dict:
        return self.service.healthz()

    def metrics_snapshot(self) -> dict:
        return self.service.metrics_snapshot()

    def swap(self, searcher, data: DocumentCollection | None = None) -> int:
        """Install a new snapshot generation (see ``swap_searcher``)."""
        return self.service.swap_searcher(searcher, data)

    def remove_document(self, local_doc_id: int) -> None:
        self.service.remove_document(local_doc_id)

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
    absorb transient transport faults; the router's hedging absorbs
    tail latency).  The client's per-call deadline is left unbounded —
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
        retries: int = 2,
        http_timeout: float = 30.0,
        pid: int | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.shard_id = shard_id
        self.doc_lo = doc_lo
        self.doc_hi = doc_hi
        self.replica = replica
        self.pid = pid
        self._client = ResilientClient(
            base_url,
            retries=retries,
            deadline=None,
            http_timeout=http_timeout,
        )

    def search(
        self, query: Document, *, timeout: float | None, routing=None
    ) -> _ShardReply:
        reply = self._client.search(
            token_ids=list(query.tokens), timeout=timeout, routing=routing
        )
        pairs = tuple(MatchPair(*pair) for pair in reply.get("pairs", ()))
        return _ShardReply(
            pairs, bool(reply.get("cached")), int(reply.get("index_epoch", 0))
        )

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
        # Stable replica numbering: honor an existing replica attribute,
        # fall back to listing order, then renumber densely 0..R-1 so
        # failover order and metrics labels are deterministic.
        ordered = sorted(
            enumerate(backends),
            key=lambda item: (getattr(item[1], "replica", 0), item[0]),
        )
        self.replicas = [backend for _, backend in ordered]
        for index, backend in enumerate(self.replicas):
            backend.replica = index
        self.down: set[int] = set()

    def __len__(self) -> int:
        return len(self.replicas)

    def backend(self, replica: int):
        for candidate in self.replicas:
            if candidate.replica == replica:
                return candidate
        raise ConfigurationError(
            f"shard {self.shard_id} has no replica {replica} "
            f"(has {[b.replica for b in self.replicas]})"
        )

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
        pairs: tuple,
        cached: bool,
        seconds: float,
        index_epoch: int,
        failures: Sequence[QueryFailure] = (),
        shard_epochs: dict | None = None,
    ) -> None:
        super().__init__(pairs, cached, seconds, index_epoch)
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
    hedge_after:
        Seconds to wait for a shard before sending one hedged duplicate
        sub-request (to the next replica, when there is one); first
        reply wins.  ``None`` disables hedging.
    pool_size:
        Scatter thread-pool size (default ``4 *`` total backend count —
        enough for hedges and failovers plus concurrent callers).
    """

    def __init__(
        self,
        backends: Sequence,
        data: DocumentCollection | None = None,
        *,
        default_timeout: float | None = None,
        hedge_after: float | None = None,
        pool_size: int | None = None,
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
        self.hedge_after = hedge_after
        self.started_at = time.time()
        self._closed = False
        self._supervisor = None
        self._pool = ThreadPoolExecutor(
            max_workers=pool_size or 4 * len(backends),
            thread_name_prefix=f"{name}-scatter",
        )
        self._metrics_lock = threading.Lock()
        self._health_lock = threading.Lock()
        self._registry = MetricsRegistry()
        self._registry.gauge("router.shards").set(len(sets))
        self._registry.gauge("router.replicas").set(len(backends))
        self._last_epochs = {rset.shard_id: 0 for rset in sets}

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
        compact: bool = True,
        default_timeout: float | None = None,
        hedge_after: float | None = None,
        name: str = "shard-router",
        **service_kwargs,
    ) -> "ShardRouter":
        """Build an in-process router: one :class:`SearchService` per replica.

        Every replica of a shard gets its *own* searcher over the same
        document subset, mirroring the process isolation of worker
        replicas — mutations (tombstones, swaps) are applied per
        replica, never shared through one object.
        """
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        sizes = [len(doc) for doc in data]
        ranges = partition_ranges(sizes, shards)
        backends = []
        for shard_id, (lo, hi) in enumerate(ranges):
            subset = data.subset(range(lo, hi))
            for replica in range(replicas):
                searcher = PKWiseSearcher(subset, params)
                if compact:
                    searcher = searcher.compacted()
                service = SearchService(
                    searcher,
                    subset,
                    name=f"{name}-shard-{shard_id:03d}-r{replica}",
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
            hedge_after=hedge_after,
            name=name,
        )

    @classmethod
    def open(
        cls,
        directory: str | Path,
        *,
        mmap: bool = True,
        replicas: int | None = None,
        default_timeout: float | None = None,
        hedge_after: float | None = None,
        name: str = "shard-router",
        **service_kwargs,
    ) -> "ShardRouter":
        """Serve an existing :class:`ShardPlan` directory in process.

        Every replica loads its shard snapshot independently
        (``mmap=True`` maps the array sections zero-copy — the page cache
        is shared, the searcher state is not) behind its own
        :class:`SearchService`.  ``replicas=None`` uses the plan's
        recorded replica count.
        """
        directory = Path(directory)
        plan = ShardPlan.load(directory)
        if replicas is None:
            replicas = plan.replicas
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        backends = []
        encode_data = None
        for spec in plan.shards:
            for replica in range(replicas):
                bundle = load_bundle(directory / spec.path, mmap=mmap)
                if bundle.data is None:
                    raise ConfigurationError(
                        f"shard snapshot {spec.path} has no document bundle"
                    )
                if encode_data is None:
                    encode_data = bundle.data
                service = SearchService(
                    bundle.searcher,
                    bundle.data,
                    name=f"{name}-shard-{spec.shard_id:03d}-r{replica}",
                    **service_kwargs,
                )
                backends.append(
                    LocalShardBackend(
                        service,
                        shard_id=spec.shard_id,
                        doc_lo=spec.doc_lo,
                        doc_hi=spec.doc_hi,
                        replica=replica,
                    )
                )
        return cls(
            backends,
            encode_data,
            default_timeout=default_timeout,
            hedge_after=hedge_after,
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
    def all_backends(self) -> tuple:
        """Every backend of every replica set, shard-major order."""
        return tuple(
            backend for rset in self._sets for backend in rset.replicas
        )

    @property
    def num_shards(self) -> int:
        return len(self._sets)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def index_epoch(self) -> int:
        """Sum of the last-observed per-shard epochs (monotone)."""
        return sum(self._last_epochs.values())

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

    def _note_replica_failure(self, backend, error: Exception) -> None:
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
        front-end maps
        ``ok``/``degraded`` to 200 — a degraded router still answers
        queries, so balancers must not eject it — and reserves 503 for
        ``down`` (no shard reachable) and ``closed``.
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
        envelope ``check_regression.py`` diffs for a single service.
        A supervisor attached via :meth:`attach_supervisor` contributes
        its restart/readmit/quarantine counters too.
        """
        with self._metrics_lock:
            registry = MetricsRegistry.from_snapshot(self._registry.snapshot())
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
        per-request fingerprint routing override.
        """
        if self._closed:
            raise ServiceClosedError(f"{self.name} is closed")
        if timeout is None:
            timeout = self.default_timeout
        start = time.monotonic()
        deadline_at = start + timeout if timeout is not None else None
        with self._metrics_lock:
            self._registry.counter("router.requests").inc()
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
        cached_votes: list[bool] = []
        for rset in self._sets:
            reply = results.get(rset.shard_id)
            if reply is None:
                continue
            faults.inject("shards.gather", shard=rset.shard_id)
            shard_epochs[rset.shard_id] = reply.index_epoch
            self._last_epochs[rset.shard_id] = max(
                self._last_epochs[rset.shard_id], reply.index_epoch
            )
            cached_votes.append(reply.cached)
            offset = rset.doc_lo
            # Shard-local doc ids renumber from 0 within [doc_lo, doc_hi);
            # adding the offset restores global ids.  Ranges ascend and
            # every reply is canonically ordered, so appending in shard
            # order keeps the merged list canonical without a re-sort.
            pairs.extend(
                MatchPair(pair[0] + offset, pair[1], pair[2], pair[3])
                for pair in reply.pairs
            )
        elapsed = time.monotonic() - start
        with self._metrics_lock:
            self._registry.counter("router.completed").inc()
            self._registry.timer("router.request_seconds").add(elapsed)
            if failures:
                self._registry.counter("router.partial_responses").inc()
                self._registry.counter("router.shard_failures").inc(len(failures))
        return RouterResponse(
            tuple(pairs),
            cached=bool(cached_votes) and all(cached_votes),
            seconds=elapsed,
            index_epoch=sum(shard_epochs.values()),
            failures=failures,
            shard_epochs=shard_epochs,
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

    def search_many(
        self,
        queries: Sequence[Document],
        *,
        timeout: float | None = None,
        routing=None,
    ) -> AggregateRun:
        """Serve a batch; shard failures aggregate per query position."""
        start = time.monotonic()
        results_by_query: dict[int, list[MatchPair]] = {}
        failures: list[QueryFailure] = []
        for position, query in enumerate(queries):
            try:
                response = self.search(query, timeout=timeout, routing=routing)
            except ReproError as exc:
                failures.append(
                    QueryFailure(
                        position=position,
                        query_id=query.doc_id,
                        query_name=query.name,
                        error_type=type(exc).__name__,
                        error_message=str(exc),
                        attempts=1,
                    )
                )
                continue
            results_by_query[position] = list(response.pairs)
            failures.extend(
                replace(shard_failure, position=position)
                for shard_failure in response.failures
            )
        return AggregateRun(
            name=self.name,
            num_queries=len(queries),
            total_seconds=time.monotonic() - start,
            stats=SearchStats(),
            results_by_query=results_by_query,
            failures=failures,
        )

    # ------------------------------------------------------------------
    def _shard_call(
        self,
        backend,
        query: Document,
        deadline_at: float | None,
        routing=None,
        *,
        is_failover: bool = False,
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
        """Fan out one sub-request per shard; fail over, hedge, collect.

        Per shard the replicas form a preference list (healthy first).
        The first replica is tried immediately; every *failed* attempt
        advances to the next untried replica (``router.failovers``)
        before the shard is given up on — a shard fails only once all
        of its replicas have failed or the deadline passes.  Hedging
        races one extra replica per straggling shard after
        ``hedge_after`` seconds; first reply wins.
        """
        # Per-shard scatter state, keyed by shard id.
        order: dict[int, list] = {}  # replica preference order
        cursor: dict[int, int] = {}  # next index in order to try
        in_flight: dict[int, int] = {}  # outstanding attempts
        attempts: dict[int, int] = {}  # total attempts started
        errors: dict[int, Exception] = {}
        outstanding: dict = {}  # future -> (shard_id, backend)
        unresolved: set[int] = set(self._by_id)
        results: dict[int, _ShardReply] = {}
        failures: list[QueryFailure] = []
        last_error: Exception | None = None

        def submit(shard_id: int, *, is_failover: bool) -> None:
            backend = order[shard_id][cursor[shard_id] % len(order[shard_id])]
            cursor[shard_id] += 1
            attempts[shard_id] += 1
            in_flight[shard_id] += 1
            future = self._pool.submit(
                self._shard_call,
                backend,
                query,
                deadline_at,
                routing,
                is_failover=is_failover,
            )
            outstanding[future] = (shard_id, backend)

        with self._health_lock:
            for rset in self._sets:
                order[rset.shard_id] = rset.preference_order()
                cursor[rset.shard_id] = 0
                in_flight[rset.shard_id] = 0
                attempts[rset.shard_id] = 0
        for shard_id in (rset.shard_id for rset in self._sets):
            submit(shard_id, is_failover=False)
        hedge_at = (
            time.monotonic() + self.hedge_after
            if self.hedge_after is not None
            else None
        )
        while outstanding and unresolved:
            now = time.monotonic()
            if deadline_at is not None and now >= deadline_at:
                break
            wait_until = deadline_at
            if hedge_at is not None:
                wait_until = (
                    hedge_at if wait_until is None else min(wait_until, hedge_at)
                )
            wait_timeout = (
                None if wait_until is None else max(0.0, wait_until - now)
            )
            done, _ = wait(
                set(outstanding), timeout=wait_timeout,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                shard_id, backend = outstanding.pop(future)
                in_flight[shard_id] -= 1
                if shard_id not in unresolved:
                    continue  # another attempt already answered
                try:
                    results[shard_id] = future.result()
                except Exception as exc:  # noqa: BLE001 - per-replica isolation
                    errors[shard_id] = exc
                    last_error = exc
                    self._note_replica_failure(backend, exc)
                    if cursor[shard_id] < len(order[shard_id]):
                        # Untried replicas remain: fail over before the
                        # shard is declared dead.
                        with self._metrics_lock:
                            self._registry.counter("router.failovers").inc()
                        submit(shard_id, is_failover=True)
                    elif in_flight[shard_id] == 0:
                        # Every replica tried, none still racing.
                        failures.append(
                            self._shard_failure(
                                query, shard_id, exc, attempts[shard_id]
                            )
                        )
                        unresolved.discard(shard_id)
                else:
                    unresolved.discard(shard_id)
                    self._note_replica_success(backend)
            if hedge_at is not None and time.monotonic() >= hedge_at:
                hedge_at = None  # at most one hedge per shard per query
                for shard_id in sorted(unresolved):
                    if in_flight[shard_id] == 0:
                        continue  # failover already racing; nothing to hedge
                    with self._metrics_lock:
                        self._registry.counter("router.hedges").inc()
                    # The hedge goes to the next replica in preference
                    # order (wrapping back to the head when every
                    # replica already has an attempt out).
                    submit(shard_id, is_failover=False)
        for shard_id in sorted(unresolved):
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
        for future in outstanding:
            future.cancel()  # best effort; late replies are discarded
        failures.sort(key=lambda failure: failure.position)
        return results, failures, last_error

    # ------------------------------------------------------------------
    # Mutation / swap
    # ------------------------------------------------------------------
    def remove_document(self, doc_id: int) -> None:
        """Tombstone a *global* doc id on every replica of its shard.

        Replicas must stay pair-identical — a tombstone applied to one
        replica only would make results depend on which replica served
        the query — so the removal either reaches all replicas or
        raises before touching any.
        """
        for rset in self._sets:
            if rset.doc_lo <= doc_id < rset.doc_hi:
                removers = []
                for backend in rset.replicas:
                    remover = getattr(backend, "remove_document", None)
                    if remover is None:
                        raise ServiceError(
                            f"shard {rset.shard_id} replica {backend.replica} "
                            f"backend does not support remove_document "
                            f"(rebuild + rolling swap instead)"
                        )
                    removers.append(remover)
                for remover in removers:
                    remover(doc_id - rset.doc_lo)
                return
        raise ConfigurationError(
            f"doc_id {doc_id} outside corpus [0, {self._sets[-1].doc_hi})"
        )

    def swap_shard(
        self,
        shard_id: int,
        searcher,
        data: DocumentCollection | None = None,
        *,
        replica: int | None = None,
    ) -> int:
        """Swap one shard to a new snapshot generation without downtime.

        ``replica=None`` installs ``searcher`` on every replica of the
        shard (fine for frozen snapshots — per-replica mutations need
        per-replica searcher objects: pass an explicit ``replica`` per
        freshly loaded bundle, as :meth:`rolling_swap` does).
        """
        rset = self._require_set(shard_id)
        faults.inject("shards.swap", shard=shard_id)
        targets = (
            rset.replicas if replica is None else [rset.backend(replica)]
        )
        generation = 0
        for backend in targets:
            swap = getattr(backend, "swap", None)
            if swap is None:
                raise ServiceError(
                    f"shard {shard_id} replica {backend.replica} backend "
                    f"({type(backend).__name__}) does not support in-process "
                    f"swap"
                )
            generation = max(generation, swap(searcher, data))
        with self._metrics_lock:
            self._registry.counter("router.swaps").inc()
        return generation

    def rolling_swap(
        self, directory: str | Path, *, mmap: bool = True
    ) -> int:
        """Swap every shard to the generation in ``directory``'s manifest.

        One replica at a time: load a *fresh* copy of the new snapshot
        (so replicas never share mutable searcher state), then
        :meth:`swap_shard` it — each swap drains that replica's
        in-flight readers under the write lock while every other
        replica keeps serving.  Returns the new generation number.
        """
        directory = Path(directory)
        plan = ShardPlan.load(directory)
        if plan.num_shards != len(self._sets):
            raise ConfigurationError(
                f"plan has {plan.num_shards} shards, router has "
                f"{len(self._sets)}"
            )
        for spec in plan.shards:
            rset = self._by_id.get(spec.shard_id)
            if rset is None or (rset.doc_lo, rset.doc_hi) != (
                spec.doc_lo,
                spec.doc_hi,
            ):
                raise ConfigurationError(
                    f"shard {spec.shard_id} range mismatch between plan "
                    f"and router"
                )
        for spec in plan.shards:
            rset = self._by_id[spec.shard_id]
            for backend in list(rset.replicas):
                bundle = load_bundle(directory / spec.path, mmap=mmap)
                self.swap_shard(
                    spec.shard_id,
                    bundle.searcher,
                    bundle.data,
                    replica=backend.replica,
                )
        return plan.generation

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop routing, then close every backend.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        supervisor = self._supervisor
        if supervisor is not None:
            stop = getattr(supervisor, "stop", None)
            if stop is not None:
                stop()
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
            f"hedge_after={self.hedge_after}, closed={self._closed})"
        )


# ----------------------------------------------------------------------
# Worker processes (subprocess shards for the CLI / smoke / bench)
# ----------------------------------------------------------------------
@dataclass
class ShardWorker:
    """A spawned shard worker process and its serving URL."""

    spec: ShardSpec
    process: subprocess.Popen
    url: str
    replica: int = 0
    #: Where the worker's stderr is captured (a temp file, so a chatty
    #: long-running worker can never deadlock on a full pipe); read
    #: back into :class:`WorkerStartupError` when startup fails.
    stderr_path: Path | None = None

    @property
    def pid(self) -> int:
        return self.process.pid


#: How much captured worker stderr a startup error carries.
_STDERR_TAIL_BYTES = 4000


def _stderr_tail(stderr_path: Path | None) -> str:
    if stderr_path is None:
        return ""
    try:
        text = Path(stderr_path).read_text(errors="replace")
    except OSError:
        return ""
    return text[-_STDERR_TAIL_BYTES:]


def _read_serving_line(
    process: subprocess.Popen,
    timeout: float,
    *,
    stderr_path: Path | None = None,
) -> str:
    """Read a worker's stdout until its ``SERVING <url>`` line.

    ``poll()``\\ s the child between reads: a worker that dies before
    serving fails fast with a :class:`~repro.errors.WorkerStartupError`
    carrying the exit code and captured stderr, instead of blocking the
    parent on a ``readline`` that will never return.
    """
    deadline = time.monotonic() + timeout
    assert process.stdout is not None
    selector: selectors.DefaultSelector | None = selectors.DefaultSelector()
    try:
        selector.register(process.stdout, selectors.EVENT_READ)
    except (ValueError, OSError, KeyError):
        # Not a selectable stream (e.g. a test double); fall back to
        # short blocking reads guarded by the same poll()/deadline loop.
        selector.close()
        selector = None
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerStartupError(
                    f"shard worker (pid {process.pid}) did not serve within "
                    f"{timeout}s",
                    returncode=process.poll(),
                    stderr=_stderr_tail(stderr_path),
                )
            if selector is not None:
                # Wait for readable stdout first: a worker that printed
                # SERVING and then exited still hands over its URL.
                ready = selector.select(timeout=min(0.1, remaining))
                if not ready:
                    if process.poll() is not None:
                        raise WorkerStartupError(
                            f"shard worker (pid {process.pid}) exited with "
                            f"code {process.returncode} before serving",
                            returncode=process.returncode,
                            stderr=_stderr_tail(stderr_path),
                        )
                    continue
            line = process.stdout.readline()
            if not line:
                # EOF: the worker closed stdout without ever serving.
                returncode = process.poll()
                if returncode is None:
                    if selector is None:
                        if process.poll() is None:
                            time.sleep(0.05)
                            continue
                    try:
                        returncode = process.wait(timeout=1.0)
                    except subprocess.TimeoutExpired:
                        returncode = None
                raise WorkerStartupError(
                    f"shard worker (pid {process.pid}) closed stdout "
                    f"(exit code {returncode}) before serving",
                    returncode=returncode,
                    stderr=_stderr_tail(stderr_path),
                )
            if line.startswith("SERVING "):
                return line.split(None, 1)[1].strip()
    finally:
        if selector is not None:
            selector.close()


def _spawn_worker_process(
    directory: Path,
    spec: ShardSpec,
    *,
    cache_size: int | None,
    workers: int | None,
) -> tuple[subprocess.Popen, Path]:
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--index",
        str(directory / spec.path),
        "--port",
        "0",
        "--mmap",
    ]
    if cache_size is not None:
        command += ["--cache-size", str(cache_size)]
    if workers is not None:
        command += ["--workers", str(workers)]
    stderr_fd, stderr_name = tempfile.mkstemp(
        prefix=f"repro-shard-{spec.shard_id:03d}-", suffix=".stderr"
    )
    try:
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=stderr_fd, text=True
        )
    except BaseException:
        os.close(stderr_fd)
        Path(stderr_name).unlink(missing_ok=True)
        raise
    os.close(stderr_fd)
    return process, Path(stderr_name)


def spawn_one_worker(
    directory: str | Path,
    spec: ShardSpec,
    *,
    replica: int = 0,
    cache_size: int | None = None,
    workers: int | None = None,
    startup_timeout: float = 60.0,
) -> ShardWorker:
    """Start (and wait for) a single shard worker process.

    Used by :class:`~repro.service.supervisor.ShardSupervisor` to
    restart one dead replica without touching its siblings.  Raises
    :class:`~repro.errors.WorkerStartupError` — with the worker's exit
    code and stderr tail — when the process dies or hangs before its
    ``SERVING`` line; the process is reaped before the error leaves.
    """
    directory = Path(directory)
    process, stderr_path = _spawn_worker_process(
        directory, spec, cache_size=cache_size, workers=workers
    )
    worker = ShardWorker(
        spec=spec,
        process=process,
        url="",
        replica=replica,
        stderr_path=stderr_path,
    )
    try:
        worker.url = _read_serving_line(
            process, startup_timeout, stderr_path=stderr_path
        )
    except BaseException:
        stop_shard_workers([worker])
        raise
    return worker


def spawn_shard_workers(
    directory: str | Path,
    plan: ShardPlan | None = None,
    *,
    cache_size: int | None = None,
    workers: int | None = None,
    startup_timeout: float = 60.0,
    replicas: int | None = None,
) -> list[ShardWorker]:
    """Start ``replicas`` ``repro serve`` processes per shard of ``plan``.

    Each worker maps its shard's compact snapshot (``--mmap``; replicas
    of a shard share the file, and the page cache deduplicates the
    mapping) and binds an ephemeral port; the returned
    :class:`ShardWorker`\\ s carry the parsed URLs, shard-major
    (``[s0r0, s0r1, ..., s1r0, ...]``).  ``replicas=None`` uses the
    plan's recorded count.  All processes launch before any ``SERVING``
    line is awaited, so startup latency is one worker's, not the sum.
    On any startup failure — including a worker that dies before
    serving, which raises :class:`~repro.errors.WorkerStartupError`
    with its stderr — every already-spawned worker is terminated before
    the error propagates.
    """
    directory = Path(directory)
    if plan is None:
        plan = ShardPlan.load(directory)
    if replicas is None:
        replicas = plan.replicas
    if replicas < 1:
        raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
    spawned: list[ShardWorker] = []
    try:
        for spec in plan.shards:
            for replica in range(replicas):
                process, stderr_path = _spawn_worker_process(
                    directory, spec, cache_size=cache_size, workers=workers
                )
                spawned.append(
                    ShardWorker(
                        spec=spec,
                        process=process,
                        url="",
                        replica=replica,
                        stderr_path=stderr_path,
                    )
                )
        for worker in spawned:
            worker.url = _read_serving_line(
                worker.process, startup_timeout,
                stderr_path=worker.stderr_path,
            )
        return spawned
    except BaseException:
        stop_shard_workers(spawned)
        raise


def stop_shard_workers(workers, *, timeout: float = 5.0) -> None:
    """Terminate (then kill) every worker process.  Idempotent."""
    workers = list(workers)
    for worker in workers:
        if worker.process.poll() is None:
            worker.process.terminate()
    deadline = time.monotonic() + timeout
    for worker in workers:
        remaining = max(0.1, deadline - time.monotonic())
        try:
            worker.process.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            worker.process.kill()
            worker.process.wait()
        if worker.process.stdout is not None:
            worker.process.stdout.close()
        stderr_path = getattr(worker, "stderr_path", None)
        if stderr_path is not None:
            Path(stderr_path).unlink(missing_ok=True)


def backends_for_workers(
    workers: Sequence[ShardWorker],
    *,
    retries: int = 2,
    http_timeout: float = 30.0,
) -> list[HTTPShardBackend]:
    """HTTP backends pointing at spawned shard workers.

    With replicated workers, prefer ``retries=0``: the router's
    replica failover is both faster and safer than per-replica client
    retries (a retry burns deadline budget on a worker that is already
    dead; a failover moves on to one that is not).
    """
    return [
        HTTPShardBackend(
            worker.url,
            shard_id=worker.spec.shard_id,
            doc_lo=worker.spec.doc_lo,
            doc_hi=worker.spec.doc_hi,
            replica=getattr(worker, "replica", 0),
            retries=retries,
            http_timeout=http_timeout,
            pid=worker.pid,
        )
        for worker in workers
    ]
