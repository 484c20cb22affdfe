"""Public facade: one documented way to build, open, and query indexes.

The library grew bottom-up — corpus, ordering, partitioning, core
searchers, persistence, parallel execution, serving — and each layer is
importable on its own.  This module is the top: an :class:`Index`
object that covers the common lifecycle without knowing the layers
underneath.

* :meth:`Index.build` — corpus in (a
  :class:`~repro.DocumentCollection`, a directory path, or raw texts),
  queryable :class:`Index` out; optional greedy partitioning.
* :meth:`Index.open` / :meth:`Index.save` — round-trip through the
  snapshot format in :mod:`repro.persistence` (the engine is stored
  frozen onto its compact array columns); ``Index.open(path,
  mmap=True)`` maps those columns without copying.
* :meth:`Index.searcher` — the underlying query engine, for callers
  that want the algorithm object itself.
* :class:`Searcher` — the :class:`~typing.Protocol` of a query engine,
  so harnesses and the service can be typed against the interface
  instead of a concrete class; its ``search`` keywords are the serving
  stack's engine contract.

Search results are typed and frozen end to end: ``search`` yields
:class:`~repro.core.base.MatchPair` (named fields ``doc_id`` /
``data_start`` / ``query_start`` / ``overlap``) and index probes yield
:class:`~repro.index.ProbeHit` (``doc_id`` / ``u`` / ``v``); both are
NamedTuples, so positional unpacking keeps working.

Quickstart::

    from repro import Index

    index = Index.build(["some corpus text ..."], w=10, tau=3)
    result = index.search_text("query text")

    # or, round-tripped through a snapshot file:
    index.save("corpus.idx")
    with Index.open("corpus.idx", mmap=True) as index:
        result = index.search_text("query text")
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path
from typing import Protocol, runtime_checkable

from .core.base import MatchPair
from .core.pkwise import PKWiseSearcher
from .corpus import (
    Document,
    DocumentCollection,
    collection_from_directory,
    collection_from_texts,
)
from .errors import ConfigurationError, RoutingUnavailableError
from .index import ProbeHit
from .params import SearchParams
from .persistence import load_bundle, save_searcher
from .routing import RoutingPolicy

__all__ = [
    "Index",
    "Searcher",
    "MatchPair",
    "ProbeHit",
]


@runtime_checkable
class Searcher(Protocol):
    """What every query engine in the library provides.

    ``search`` returns an object with ``pairs`` and ``stats``;
    ``search_many`` returns an
    :class:`~repro.eval.harness.AggregateRun`; ``close`` releases any
    resources (a no-op for the in-memory engines, but part of the
    contract so callers can treat engines uniformly).

    The keywords of ``search`` are the serving stack's engine contract:
    :class:`~repro.service.SearchService` passes its deadline hook as
    ``cancel=`` (a zero-argument callable polled between query windows;
    True aborts with :class:`~repro.errors.SearchCancelled`) on every
    uncached request, and :meth:`Index.search` / the service pass
    ``routing=`` (a mode string or a :class:`~repro.RoutingPolicy`, read
    for its ``mode``) exactly when a request overrides the engine's.
    :class:`~repro.PKWiseSearcher` and the LSM view implement both.
    The batch-only engines (:class:`~repro.PKWiseNonIntervalSearcher`,
    :class:`~repro.WeightedPKWiseSearcher`, :mod:`repro.baselines`)
    take the query alone, which is all the evaluation harness and
    :class:`~repro.parallel.ParallelExecutor` call them with.
    """

    def search(self, query, *, cancel=None, routing=None): ...

    def search_many(self, queries, *, jobs: int = 1): ...

    def close(self) -> None: ...


def _as_collection(data) -> DocumentCollection:
    """Coerce the facade's corpus argument into a DocumentCollection."""
    if isinstance(data, DocumentCollection):
        return data
    if isinstance(data, (str, Path)):
        return collection_from_directory(data)
    if isinstance(data, Iterable):
        return collection_from_texts(list(data))
    raise ConfigurationError(
        f"cannot build a corpus from {type(data).__name__}; pass a "
        f"DocumentCollection, a directory path, or an iterable of texts"
    )


class Index:
    """A built (or loaded) similarity index, ready to query.

    The facade's first-class object: pairs the query engine with the
    document collection needed to encode text queries, plus provenance
    (source path, load time).  Construct with :meth:`build` or
    :meth:`open`; use as a context manager to release resources.
    """

    __slots__ = ("_searcher", "_store", "data", "path", "load_seconds")

    def __init__(
        self,
        searcher,
        data: DocumentCollection | None = None,
        *,
        path: Path | None = None,
        load_seconds: float = 0.0,
    ) -> None:
        #: The query engine; prefer the :meth:`searcher` accessor.
        self._searcher = searcher
        #: The LSM ingest store once this index has been mutated (or
        #: was opened live); None for a purely read-side index.
        self._store = getattr(searcher, "store", None)
        #: The paired :class:`~repro.DocumentCollection` (None for
        #: ids-only snapshots — text queries then raise).
        self.data = data
        #: Source file, or None when built in memory.
        self.path = path
        #: Wall-clock seconds spent deserializing (0.0 in memory).
        self.load_seconds = load_seconds

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        data,
        params: SearchParams | None = None,
        *,
        w: int | None = None,
        tau: int | None = None,
        k_max: int | None = None,
        m: int | None = None,
        greedy_partition: bool = False,
        sample_ratio: float = 0.01,
        routing: RoutingPolicy | dict | str | None = None,
    ) -> "Index":
        """Build a ready-to-query pkwise index over ``data``.

        ``data`` may be a :class:`~repro.DocumentCollection`, a
        directory of ``.txt`` files, or an iterable of raw text
        strings.  Pass either a full :class:`~repro.SearchParams` or
        the individual ``w``/``tau`` (and optionally ``k_max``/``m``)
        values; when ``m`` is omitted the paper's Section 7.5 rule
        picks it from ``tau``.

        ``greedy_partition=True`` runs the cost-based greedy
        partitioner (Section 5) before indexing — slower to build,
        faster to query on skewed corpora.

        ``routing`` sets the fingerprint routing policy the index
        searches under — a :class:`~repro.RoutingPolicy`, its dict
        form, or a bare mode string (``"off"`` / ``"exact"``).
        Fingerprints are written here, so ``block_tokens`` is read; the
        policy rides on the params through :meth:`save` / :meth:`open`.
        """
        collection = _as_collection(data)
        params = SearchParams.from_values(params, w=w, tau=tau, k_max=k_max, m=m)
        if routing is not None:
            params = params.with_routing(routing)
        order = scheme = None
        if greedy_partition:
            from .ordering import GlobalOrder
            from .partition import GreedyPartitioner

            order = GlobalOrder(collection, params.w)
            scheme, _report = GreedyPartitioner(
                collection,
                params,
                order=order,
                b1_fraction=0.25,
                b2_fraction=0.1,
                sample_ratio=sample_ratio,
            ).partition()
        searcher = PKWiseSearcher(collection, params, scheme=scheme, order=order)
        return cls(searcher, collection)

    @classmethod
    def open(
        cls,
        path: str | Path,
        *,
        mmap: bool = False,
        routing: RoutingPolicy | dict | str | None = None,
    ) -> "Index":
        """Load an index saved by :meth:`save` (or ``repro index``).

        The loaded engine is frozen (array-backed); the first
        :meth:`add` / :meth:`remove` layers a mutable memtable over it.
        ``mmap=True`` memory-maps the snapshot's array columns instead
        of copying them — near-constant cold open, and concurrent
        processes mapping the same file share one page cache.  The
        snapshot stores the corpus once: ``index.data`` decodes a
        document from the rank columns each time one is asked for.
        A corrupt file falls back to its newest intact rotated
        generation (:func:`~repro.persistence.load_bundle`); one written by a
        pre-2.0 release is a typed
        :class:`~repro.persistence.PersistenceError`: rebuild it.

        ``routing`` overrides the snapshot's routing *mode* for every
        query through this index (of a :class:`~repro.RoutingPolicy`
        only ``mode`` is read; the stored layout stays).  ``"exact"``
        against a snapshot saved without fingerprints raises
        :class:`~repro.errors.RoutingUnavailableError` here, at open
        time, rather than on the first query.

        SECURITY: snapshots contain pickled sections; only open files
        you (or your pipeline) wrote.
        """
        bundle = load_bundle(path, mmap=mmap)
        searcher = bundle.searcher
        if routing is not None:
            params = searcher.params.with_routing_mode(routing)
            if params.routing.enabled and searcher._routing_tier is None:
                raise RoutingUnavailableError(
                    f"{path} was saved without routing fingerprints; "
                    f"rebuild it under a routing policy (Index.build(..., "
                    f"routing='exact') or repro index --routing exact) "
                    f"to route queries"
                )
            searcher.params = params
        return cls(
            searcher,
            bundle.data,
            path=bundle.path,
            load_seconds=bundle.load_seconds,
        )

    @classmethod
    def open_live(
        cls,
        directory: str | Path | None = None,
        params: SearchParams | None = None,
        *,
        w: int | None = None,
        tau: int | None = None,
        k_max: int | None = None,
        m: int | None = None,
        policy=None,
        routing: RoutingPolicy | dict | str | None = None,
        background: bool = False,
        fsync: bool = False,
    ) -> "Index":
        """Open (or create) a live, mutable LSM-backed index.

        With ``directory`` pointing at an existing ingest directory
        (one holding a ``MANIFEST``), the manifest is read, compact
        segments are mapped, and the write-ahead log is replayed — the
        index resumes exactly where the last process stopped, torn
        final WAL record included.  Otherwise a fresh store is created
        there (durable) or fully in memory (``directory=None``);
        creation needs ``params`` or ``w=``/``tau=`` like
        :meth:`build`.  Values given on resume must be the ones the
        directory was created with — anything else is a
        :class:`~repro.errors.ConfigurationError` naming both.

        ``background=True`` starts the background compactor thread, so
        memtable flushes and segment compactions happen off the write
        path (:class:`~repro.ingest.CompactionPolicy` decides when).
        ``fsync=True`` makes every WAL append durable against power
        loss, not just process crash.

        Thread-safe: any number of threads may query beside one or more
        that add, remove, flush or compact — with or without a
        :class:`~repro.service.SearchService` in front, ``background=True``
        included.  A query holds the read side of the store's lock for
        its whole run and every change to what it reads takes the write
        side, so each reply is exact for the documents live at one
        moment.  A write waits for the queries already running and a
        query for the write in progress; a fold's merge blocks neither.
        An add only appends; the first query after a burst of adds
        takes the write side just long enough to index them in one
        array pass, then runs under the read side.  An add that lands
        between that catch-up and the query is left to the next query,
        like one that lands mid-query.

        ``routing`` sets the store's :class:`~repro.RoutingPolicy` on
        creation and overrides its *mode* on resume (the stored layout
        stays) — new memtables maintain fingerprints incrementally;
        segments keep the fingerprints they were saved with, and a tier
        without any builds its own on the first routed query.
        """
        from .ingest import IngestStore
        from .ingest.manifest import MANIFEST_NAME, read_manifest

        resuming = directory is not None and (Path(directory) / MANIFEST_NAME).exists()
        given = params is not None or (w, tau, k_max, m) != (None, None, None, None)
        if given or not resuming:
            params = SearchParams.from_values(
                params, w=w, tau=tau, k_max=k_max, m=m,
                what="resuming a live index with values" if resuming
                else "creating a live index",
            )
        if resuming:
            if given:
                params.require_same_search(read_manifest(directory).params, directory)
            store = IngestStore.open(
                directory,
                policy=policy,
                routing=routing,
                background=background,
                fsync=fsync,
            )
        else:
            store = IngestStore.create(
                params,
                directory=directory,
                policy=policy,
                routing=routing,
                background=background,
                fsync=fsync,
            )
        return cls(
            store.searcher(),
            store.data,
            path=Path(directory) if directory is not None else None,
        )

    def save(
        self,
        path: str | Path,
        *,
        rotate: int | None = None,
        compact: bool = True,
    ) -> None:
        """Persist this index to ``path`` (atomic write).

        The engine — frozen since it was built or opened — is written in
        the one mmap-able snapshot layout; ``rotate=N`` keeps the previous N
        snapshot generations.  ``compact`` is a single-valued residue
        of the 1.x pickle format, kept only because the end-to-end
        benchmark (which this library may not edit) still passes
        ``compact=True``; ``compact=False`` raises
        :class:`~repro.errors.ConfigurationError`.

        A live (LSM-backed) index is folded into a single plain
        searcher first — the snapshot is self-contained and reopens
        with :meth:`open` like any other; the live store itself
        persists through its own manifest + WAL instead.
        """
        if not compact:
            raise ConfigurationError(
                "Index.save(compact=False) was removed in 2.0: the pickle "
                "snapshot format is gone and every snapshot is compact"
            )
        save_searcher(
            self._searcher, path, data=self.data, rotate=rotate or 0
        )

    def searcher(self) -> Searcher:
        """The underlying query engine (algorithm object).  It changes
        identity once at most: when the first write on a built or
        loaded index layers a live store over it."""
        return self._searcher

    @property
    def params(self) -> SearchParams:
        """The engine's :class:`~repro.SearchParams`."""
        return self._searcher.params

    @property
    def frozen(self) -> bool:
        """True when backed by a frozen compact index: a built or opened
        index, until its first write layers a live store over it."""
        return bool(getattr(self._searcher, "frozen", False))

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def encode_query(self, text: str, name: str | None = None):
        """Tokenize ``text`` against the paired collection's vocabulary."""
        if self.data is None:
            raise ConfigurationError(
                "index has no document collection (saved ids-only); "
                "rebuild the snapshot with its data to encode text queries"
            )
        return self.data.encode_query(text, name=name)

    def search(self, query, *, routing: RoutingPolicy | dict | str | None = None):
        """Search one encoded query; pairs are typed ``MatchPair``s.

        ``routing`` overrides the index's routing mode for this one
        query (``"exact"`` to route on an off-policy index, ``"off"``
        or ``RoutingPolicy(mode="off")`` to bypass a routed one).
        """
        if routing is None:
            return self._searcher.search(query)
        return self._searcher.search(query, routing=routing)

    def search_text(
        self, text: str, *, routing: RoutingPolicy | dict | str | None = None
    ):
        """Encode ``text`` and search it in one step."""
        return self.search(self.encode_query(text), routing=routing)

    # ------------------------------------------------------------------
    # Mutation (the unified write path)
    # ------------------------------------------------------------------
    def _ensure_store(self):
        """The LSM ingest store behind all mutations, created lazily.

        The first write on a built or loaded index wraps the existing
        engine as the base segment of an in-memory
        :class:`~repro.ingest.IngestStore`, whose engine takes over;
        frozen compact indexes upgrade the same way (the compact
        segment stays frozen — writes land in the memtable).
        """
        if self._store is None:
            from .ingest import IngestStore

            self._store = IngestStore.from_searcher(self._searcher, self.data)
            self._searcher = self._store.searcher()
        return self._store

    def add(self, document_or_text, *, name: str | None = None) -> int:
        """Add one document (raw text or encoded ``Document``).

        Returns the new doc id.  The document is immediately
        searchable: it lands in the store's mutable memtable and every
        subsequent query fans out over memtable + frozen segments with
        exact merged results.
        """
        store = self._ensure_store()
        if isinstance(document_or_text, str):
            if self.data is None:
                raise ConfigurationError(
                    "index has no document collection (saved ids-only); "
                    "pass an encoded Document instead of raw text"
                )
            return store.add_text(document_or_text, name=name)
        if isinstance(document_or_text, Document):
            return store.add_document(document_or_text)
        raise ConfigurationError(
            f"Index.add takes a str or Document, "
            f"got {type(document_or_text).__name__}"
        )

    def remove(self, doc_id: int) -> None:
        """Tombstone ``doc_id``; it stops matching immediately and is
        physically purged at the next :meth:`compact`."""
        self._ensure_store().remove(doc_id)

    def flush(self):
        """Seal the memtable and fold it into a frozen compact segment.

        Returns the new segment's generation (None when the memtable
        was empty).  Durable stores persist the segment and manifest
        before the in-memory flip, and drop the folded WAL files after.
        """
        return self._ensure_store().flush()

    def compact(self):
        """Fold all tiers (memtable + every segment) into one compact
        segment, physically purging tombstoned documents."""
        return self._ensure_store().compact()

    @property
    def live(self) -> bool:
        """True once this index has a mutable LSM write path attached."""
        return self._store is not None

    def serve(
        self,
        *,
        shards: int = 1,
        replicas: int = 1,
        **kwargs,
    ):
        """Wrap this index in a serving front-end.

        ``shards=1, replicas=1`` (default) returns a
        :class:`~repro.service.SearchService` over this index.
        ``shards=N`` (or ``replicas=R >= 2``) partitions the paired
        collection into N compact in-process shards and returns a
        :class:`~repro.service.ShardRouter` scatter-gathering over them
        (pair-for-pair identical results; ``replicas=R`` serves each
        shard from R independent in-process services with automatic
        failover).  Keyword arguments are forwarded to each underlying
        service (``max_workers``, ``max_queue``, ``cache_size``,
        ``default_timeout`` ...); with shards, ``cache_size`` sizes the
        router's result cache and the shard services run without one.
        """
        from .service import SearchService

        if shards > 1 or replicas > 1:
            if self._store is not None:
                raise ConfigurationError(
                    "sharded serving rebuilds per-shard compact indexes "
                    "and cannot host a live ingest store; serve with "
                    "shards=1 (live writes) or save + reopen read-only"
                )
            if self.data is None:
                raise ConfigurationError(
                    "sharded serving partitions the document collection; "
                    "this index was saved ids-only — rebuild with data"
                )
            from .service import ShardRouter

            default_timeout = kwargs.pop("default_timeout", None)
            return ShardRouter.local(
                self.data,
                self.params,
                shards=shards,
                replicas=replicas,
                default_timeout=default_timeout,
                **kwargs,
            )
        return SearchService(self._searcher, self.data, **kwargs)

    def close(self) -> None:
        """Release the engine's resources.  Idempotent."""
        if self._store is not None:
            self._store.close()
        self._searcher.close()

    def __enter__(self) -> "Index":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        source = str(self.path) if self.path is not None else "<memory>"
        return (
            f"Index({type(self._searcher).__name__}, "
            f"data={'yes' if self.data is not None else 'no'}, "
            f"frozen={self.frozen}, source={source})"
        )

