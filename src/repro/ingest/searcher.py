"""The searcher view over an LSM ingest store.

An :class:`LSMSearcher` is an immutable *tier snapshot*: it captures the
store's frozen tiers (segments + sealed memtables) and its active
memtable at install time, and satisfies the full
:class:`~repro.api.Searcher` protocol — the serving layer cannot tell it
from a plain :class:`~repro.PKWiseSearcher`.  The store installs a fresh
view whenever tier membership changes (seal, flush, compaction), via
:meth:`~repro.service.SearchService.swap_searcher` when attached to a
service; adds into the active memtable and tombstones are visible
through the *current* view immediately, with no reinstall.

A live view *is* the kernel: :meth:`~repro.PKWiseSearcher._search` is
inherited unchanged and runs once per query, over one
:class:`~repro.ingest.tiered.TieredIntervalIndex` (``probe_many`` fans
out to every tier and merges signature-wise) and one
:class:`~repro.ingest.tiered.TieredRankDocs` (verification resolves a
global doc id through its owning tier); the store's tombstone set is
shared by reference, so the kernel's read-time ``without_docs`` filter
sees removals at once.  Pairs come back in kernel order, exactly as
from a one-shot searcher over the same documents; result caching is the
service's business (:class:`~repro.service.cache.ResultCache`, keyed on
the store's mutation epoch).

Routing is the only thing a view overrides: fingerprints live per tier
(maintained on insert by the memtable, stored with a segment, or built
on the first routed query), and
:class:`~repro.ingest.tiered.TieredFingerprints` glues their survivor
masks by doc id.
"""

from __future__ import annotations

from ..core.pkwise import PKWiseSearcher
from ..errors import ConfigurationError
from .tiered import TieredFingerprints, TieredIntervalIndex, TieredRankDocs


class LSMSearcher(PKWiseSearcher):
    """Read view over one tier snapshot of an :class:`~repro.ingest.IngestStore`."""

    name = "pkwise-lsm"

    def __init__(self, store, frozen_tiers, active_tier) -> None:
        params = store.params
        self.params = params
        self.order = store.order
        self.scheme = store.scheme
        self.store = store
        self._frozen_tiers = tuple(frozen_tiers)
        self._active_tier = active_tier
        tiers = self._frozen_tiers + (active_tier,)
        self.index = TieredIntervalIndex(tiers, params.w, params.tau, store.scheme)
        self.rank_docs = TieredRankDocs(tiers)
        self._fingerprints = TieredFingerprints(tiers, params)
        #: Shared with the store — removals are visible to every view.
        self._removed = store.removed
        self.index_build_seconds = 0.0

    @property
    def index_epoch(self) -> int:
        """The store's mutation counter (service-level cache epoch)."""
        return self.store.mutation_epoch

    def routing_fingerprints(self) -> TieredFingerprints:
        """Per-tier fingerprints glued by doc id (never unavailable:
        a tier without stored fingerprints builds them on demand)."""
        return self._fingerprints

    @property
    def frozen(self) -> bool:
        """Never frozen: writes land in the store's active memtable."""
        return False

    # -- search: the inherited kernel; batches stay serial --------------
    def search_many(self, queries, *, jobs: int = 1):
        if jobs != 1:
            raise ConfigurationError(
                "a live LSM searcher runs queries serially (its store is "
                "process-local); save a compact snapshot for parallel "
                "batch runs"
            )
        return super().search_many(queries, jobs=1)

    # -- mutation (routed through the store) ----------------------------
    def _remove_document(self, doc_id: int) -> None:
        self.store.remove(doc_id)

    @property
    def removed_documents(self) -> frozenset:
        return frozenset(self.store.removed)

    # -- lifecycle ------------------------------------------------------
    def compacted(self) -> PKWiseSearcher:
        """A plain frozen searcher over every live document (all tiers)."""
        return self.store.compacted_searcher()

    def close(self) -> None:
        """Views are cheap and shared; closing the store is explicit
        (:meth:`~repro.ingest.IngestStore.close`)."""

    def __repr__(self) -> str:
        return (
            f"LSMSearcher({len(self._frozen_tiers)} frozen tiers, "
            f"memtable={len(self._active_tier)} docs, "
            f"epoch={self.index_epoch})"
        )
