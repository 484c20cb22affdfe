"""The query engine of an LSM ingest store.

A store has one :class:`LSMSearcher` for its whole life
(:meth:`~repro.ingest.IngestStore.searcher` always returns it), and it
satisfies the full :class:`~repro.api.Searcher` protocol — the serving
layer cannot tell it from a plain :class:`~repro.core.pkwise.PKWiseSearcher`.
Whenever tier membership changes (seal, flush, compaction) the store
re-points it over the new tiers, under the write side of its lock;
adds into the active memtable and tombstones are visible at once, with
no install.

A live engine *is* the kernel:
:meth:`~repro.core.pkwise.PKWiseSearcher._search` is inherited unchanged and
runs once per query, over one :class:`~repro.ingest.tiered.TieredIntervalIndex`
(``probe_many`` fans out to every tier and merges signature-wise) and one
:class:`~repro.ingest.tiered.TieredRankDocs` (verification resolves a
global doc id through its owning tier); the store's tombstone set is
shared by reference, so the kernel's read-time ``without_docs`` filter
sees removals at once.  Pairs come back in kernel order, exactly as
from a one-shot searcher over the same documents; result caching is the
service's business (:class:`~repro.service.cache.ResultCache`, keyed on
the store's mutation epoch).

The only things a live engine adds to the kernel: the store's lock, the
memtable catch-up and per-tier routing.  :meth:`LSMSearcher.search`
holds the read side of the store's lock for the whole query, whoever
calls it, so no add, remove or install lands mid-query.  A query that
finds the active memtable behind its adds first takes the write side
just long enough to index the pending documents in one array pass
(:meth:`~repro.ingest.memtable.Memtable.catch_up`), then runs under the read
side like any other: concurrent queries that all found it behind catch
up once and still run side by side.
Fingerprints live per tier (joined onto a segment by its fold, or built
from the tier's rank column by the first routed query and extended by
later ones as the memtable grows; no file stores them), and
:class:`~repro.ingest.tiered.TieredFingerprints` glues their survivor
masks by doc id.
"""

from __future__ import annotations

from ..core.pkwise import PKWiseSearcher
from .tiered import TieredFingerprints, TieredIntervalIndex, TieredRankDocs


class LSMSearcher(PKWiseSearcher):
    """The one query engine of an :class:`~repro.ingest.IngestStore`."""

    name = "pkwise-lsm"

    def __init__(self, store) -> None:
        self.params = store.params
        self.order = store.order
        self.scheme = store.scheme
        self.store = store
        #: The store's own set, never re-bound: removals are visible
        #: at once, here and through ``removed_documents``.
        self._removed = store.removed
        self.index_build_seconds = 0.0

    def _install(self, tiers) -> None:
        """Re-point over ``tiers`` (frozen ones, then the active
        memtable's); the store calls this under its write side."""
        params = self.params
        self.index = TieredIntervalIndex(tiers, params.w, params.tau, self.scheme)
        self.rank_docs = TieredRankDocs(tiers)
        self._fingerprints = TieredFingerprints(tiers, params)
        self._memtable = tiers[-1].index

    @property
    def index_epoch(self) -> int:
        """The store's mutation counter (service-level cache epoch)."""
        return self.store.mutation_epoch

    def routing_fingerprints(self) -> TieredFingerprints:
        """Per-tier fingerprints glued by doc id (a tier without
        fingerprints builds them on demand)."""
        return self._fingerprints

    # -- search: the kernel under the store's lock
    def search(self, query, *, cancel=None, routing=None):
        """The kernel under the read side of the store's lock.  A query
        that finds the active memtable behind its adds first catches it
        up under the write side, which it holds for nothing else."""
        lock = self.store._lock
        lock.acquire_read()
        if self._memtable.behind:
            lock.release_read()
            lock.acquire_write()
            try:
                # A no-op when another query caught up while this one
                # waited for the write side.
                self._memtable.catch_up()
            finally:
                lock.release_write()
            # An add landing before the read side is back has no
            # postings yet: it is not seen, as if it landed mid-query.
            lock.acquire_read()
        try:
            return super().search(query, cancel=cancel, routing=routing)
        finally:
            lock.release_read()

    # -- lifecycle ------------------------------------------------------
    def compacted(self) -> PKWiseSearcher:
        """A plain frozen searcher over every live document (all tiers)."""
        return self.store.compacted_searcher()

    def close(self) -> None:
        """The engine is shared; closing the store is explicit
        (:meth:`~repro.ingest.IngestStore.close`), and the engine keeps
        answering queries after it."""

    def __repr__(self) -> str:
        tiers = self.index.tiers
        return (
            f"LSMSearcher({len(tiers) - 1} frozen tiers, "
            f"memtable={len(tiers[-1])} docs, "
            f"epoch={self.index_epoch})"
        )
