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

Search runs as two sub-searches whose result spaces are disjoint by
construction (frozen tiers cover doc ids ``[0, seal_hi)``, the active
memtable ``[seal_hi, ...)``):

* the **frozen part** fans out over segments + sealed memtables and is
  cached in the store's segment cache under a key carrying the
  *segment-generation epoch vector* ``(tombstone_epoch, gen_1, ...,
  gen_k)`` — a memtable insert does not touch the vector, so frozen
  results stay warm across a write stream and only removals or tier
  changes invalidate them;
* the **memtable part** runs fresh every time (it is small — that is
  the point of a memtable).

Concatenating the two canonical pair lists yields the globally
canonical order, because every frozen doc id precedes every memtable
doc id.
"""

from __future__ import annotations

from ..core.base import SearchResult, SearchStats
from ..core.pkwise import PKWiseSearcher
from ..errors import ConfigurationError
from ..eval.harness import canonical_pair_order
from ..service.cache import query_token_hash
from .tiered import TieredIntervalIndex, TieredRankDocs


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
        all_tiers = self._frozen_tiers + (active_tier,)
        self.index = TieredIntervalIndex(
            all_tiers, params.w, params.tau, store.scheme
        )
        self.rank_docs = TieredRankDocs(all_tiers)
        #: Shared with the store — removals are visible to every view.
        self._removed = store.removed
        self.index_build_seconds = 0.0
        self.build_worker_reports = []
        self._params_key = repr(params)
        if self._frozen_tiers:
            self._frozen_view = PKWiseSearcher.from_prebuilt(
                params,
                store.order,
                store.scheme,
                TieredIntervalIndex(
                    self._frozen_tiers, params.w, params.tau, store.scheme
                ),
                TieredRankDocs(self._frozen_tiers),
            )
            self._frozen_view._removed = store.removed
        else:
            self._frozen_view = None
        self._memtable_view = PKWiseSearcher.from_prebuilt(
            params,
            store.order,
            store.scheme,
            TieredIntervalIndex((active_tier,), params.w, params.tau, store.scheme),
            TieredRankDocs((active_tier,)),
            routing_tier=(
                active_tier.fingerprints
                if active_tier.fingerprints is not None
                else "auto"
            ),
        )
        self._memtable_view._removed = store.removed
        #: Frozen-tier component of the epoch vector (tier generations
        #: are fixed per view; the tombstone epoch is read per search).
        self._frozen_generations = tuple(
            tier.generation for tier in self._frozen_tiers
        )

    # -- epochs ---------------------------------------------------------
    @property
    def index_epoch(self) -> int:
        """The store's mutation counter (service-level cache epoch)."""
        return self.store.mutation_epoch

    def frozen_epoch_vector(self) -> tuple:
        """Epoch vector keying the segment cache for this view.

        ``(tombstone_epoch, gen_1, ..., gen_k)`` — lexicographically
        monotone across the store's lifetime: removes bump the leading
        element, a seal appends a strictly higher generation, and a
        fold replaces generations with one strictly higher than any it
        consumed.  Monotonicity is what lets
        :meth:`~repro.service.cache.ResultCache.put` purge stale
        entries with its ordinary ``<`` comparison.
        """
        return (self.store.tombstone_epoch,) + self._frozen_generations

    @property
    def frozen(self) -> bool:
        """Never frozen: writes land in the store's active memtable."""
        return False

    # -- search ---------------------------------------------------------
    def _search(self, query, cancel=None, routing=None) -> SearchResult:
        stats = SearchStats()
        pairs: list = []
        policy = self.params.routing if routing is None else routing
        frozen_view = self._frozen_view
        if frozen_view is not None:
            cache = self.store.segment_cache
            key = (
                query_token_hash(query.tokens),
                self._params_key if routing is None
                else (self._params_key, repr(routing)),
                self.frozen_epoch_vector(),
            )
            cached = cache.get(key)
            if cached is None:
                result = frozen_view._search(query, cancel, policy)
                cached = tuple(canonical_pair_order(list(result.pairs)))
                cache.put(key, cached)
                stats.merge(result.stats)
            pairs.extend(cached)
        if len(self._active_tier):
            result = self._memtable_view._search(query, cancel, policy)
            pairs.extend(canonical_pair_order(list(result.pairs)))
            stats.merge(result.stats)
        stats.num_results = len(pairs)
        return SearchResult(pairs=pairs, stats=stats)

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
