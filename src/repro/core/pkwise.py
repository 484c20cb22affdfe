"""pkwise: partitioned k-wise signatures with interval sharing (Alg. 4).

This is the paper's proposed algorithm.  Indexing cuts every data
window's signatures into maximal window intervals in one array pass over
the corpus (:class:`~repro.signatures.bulk.CorpusRuns`), written straight
into a frozen :class:`~repro.index.compact.CompactIntervalIndex`.  Query
processing streams signature open/close events over the query document
(Algorithm 5, :class:`~repro.signatures.maintain.SignatureStream`); the
candidate interval multiset ``A`` is
carried from window to window and only updated when the signature set
changes (Lines 12-16 of Algorithm 4), merged (with the Section 4.3
gap rule), and verified with rolling hash tables and early-termination
skips.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Callable
from itertools import islice

import numpy as np

from ..corpus import Document, DocumentCollection
from ..errors import ConfigurationError, SearchCancelled
from ..index.compact import CompactIntervalIndex
from ..obs import get_tracer
from ..index.intervals import WindowInterval, merge_intervals
from ..ordering import GlobalOrder
from ..ordering.global_order import window_frequencies
from ..params import SearchParams
from ..partition.scheme import PartitionScheme
from ..routing import FingerprintTier, RoutingPolicy
from ..signatures.maintain import SignatureStream
from .base import SearchResult, SearchStats
from .verify import IntervalVerifier


#: Relative window-frequency span used by :func:`default_scheme`:
#: tokens appearing in fewer than FREQ_LOW of all data windows stay
#: 1-wise; the thresholds for classes 2..k_max are log-spaced up to
#: FREQ_HIGH.  These defaults follow the paper's observation that only
#: the (relatively) frequent head of the universe needs combining.
DEFAULT_FREQ_LOW = 0.002
DEFAULT_FREQ_HIGH = 0.05


def default_scheme(
    params: SearchParams,
    relative_frequencies: np.ndarray,
    freq_low: float = DEFAULT_FREQ_LOW,
    freq_high: float = DEFAULT_FREQ_HIGH,
) -> PartitionScheme:
    """A frequency-threshold scheme when no cost-optimized one is given.

    ``relative_frequencies`` is each build-time rank's window frequency
    over the number of data windows, ascending (what
    :func:`order_and_scheme` counts).  Tokens are assigned to classes by
    it: rare tokens (below ``freq_low``) are selective enough as single
    tokens; increasingly frequent tokens move into higher classes, with
    the class thresholds log-spaced between ``freq_low`` and
    ``freq_high``.  This mirrors where the greedy cost-based partitioner
    (:mod:`repro.partition.greedy`) typically lands while costing
    nothing to compute; use the partitioner for the tuned result.
    """
    size = len(relative_frequencies)
    k_max = params.k_max
    if k_max == 1 or size == 0:
        return PartitionScheme(universe_size=size, borders=(), m=params.m)
    thresholds = []
    for class_index in range(2, k_max + 1):
        if k_max == 2:
            fraction = 0.0
        else:
            fraction = (class_index - 2) / (k_max - 2)
        thresholds.append(freq_low * (freq_high / freq_low) ** fraction)
    # Class c starts at the first rank whose relative frequency reaches
    # its threshold, and never before the class below it.
    borders = np.maximum.accumulate(
        np.searchsorted(relative_frequencies, thresholds, side="left")
    )
    return PartitionScheme(
        universe_size=size, borders=tuple(borders.tolist()), m=params.m
    )


def order_and_scheme(
    data: DocumentCollection, params: SearchParams, order: GlobalOrder | None = None
) -> tuple[GlobalOrder, PartitionScheme]:
    """The global order over ``data`` and its :func:`default_scheme`,
    from one count of ``data``'s window frequencies.

    The frequencies are a build-time value: they choose the order
    (§2.2) and the class borders (§5), and neither keeps them, so a
    stored order or scheme holds none.  A given ``order`` (one shared
    between searchers) is kept, and the scheme takes the frequencies of
    its build-time ranks over ``data``.
    """
    frequencies = window_frequencies(data, params.w)
    if order is None:
        order = GlobalOrder(data, params.w, frequencies)
    windows = data.total_windows(params.w)
    ranked = frequencies[order.token_table()[: order.universe_size]]
    relative = ranked / windows if windows else np.zeros(len(ranked))
    return order, default_scheme(params, relative)


class PKWiseSearcher:
    """Local similarity search with partitioned k-wise signatures.

    A constructed searcher is frozen: its index is a
    :class:`~repro.index.compact.CompactIntervalIndex` and its rank sequences a
    :class:`~repro.index.compact.PackedRankDocs`, both written once here, so
    :meth:`compacted` and a snapshot save rebuild nothing.  Documents are
    added through :meth:`repro.Index.add`, which layers a memtable over it.

    Parameters
    ----------
    data:
        The data document collection (indexed at construction).
    params:
        Validated search parameters (w, tau, k_max, m).
    scheme:
        Partition scheme; defaults to :func:`default_scheme`
        (:func:`order_and_scheme`).  Use
        :class:`~repro.partition.GreedyPartitioner` to obtain a
        cost-optimized scheme first.
    order:
        Global token order; built from ``data`` if omitted.  Pass a
        shared order when comparing multiple algorithms so they agree on
        ranks.
    """

    name = "pkwise"

    def __init__(
        self,
        data: DocumentCollection,
        params: SearchParams,
        scheme: PartitionScheme | None = None,
        order: GlobalOrder | None = None,
    ) -> None:
        self.params = params
        if scheme is None:
            order, scheme = order_and_scheme(data, params, order)
        self.order = order if order is not None else GlobalOrder(data, params.w)
        if scheme.m != params.m:
            raise ConfigurationError(
                f"scheme.m ({scheme.m}) disagrees with params.m ({params.m})"
            )
        self.scheme = scheme
        self._removed: set[int] = set()
        build_start = time.perf_counter()
        with get_tracer().span(
            "pkwise.index_build", documents=len(data)
        ) as build_span:
            self.rank_docs = self.order.rank_documents(data)
            self.index = CompactIntervalIndex.from_rank_docs(
                self.rank_docs, params.w, params.tau, scheme
            )
            build_span.annotate(
                windows=self.index.num_windows, postings=self.index.num_postings
            )
        self.index_build_seconds = time.perf_counter() - build_start
        #: Monotone counter bumped by every index mutation
        #: (:meth:`_remove_document`).  Result caches key on it so
        #: cached and fresh results stay pair-for-pair identical across
        #: mutations.
        self.index_epoch = 0

    @classmethod
    def from_prebuilt(
        cls,
        params: SearchParams,
        order: GlobalOrder,
        scheme: PartitionScheme,
        index,
        rank_docs,
        build_seconds: float = 0.0,
        *,
        removed=(),
        index_epoch: int = 0,
    ) -> "PKWiseSearcher":
        """Assemble a searcher around an already-built interval index.

        Used by the snapshot loader and the LSM ingest store; the parts
        must be mutually consistent (``rank_docs[i]`` is document ``i``'s rank
        sequence under ``order``, and ``index`` covers exactly those
        documents with ``scheme``/``params``): a frozen
        :class:`~repro.index.compact.CompactIntervalIndex` and a
        :class:`~repro.index.compact.PackedRankDocs`.  ``removed`` /
        ``index_epoch`` restore tombstones and the cache epoch of a
        snapshotted searcher.
        """
        if scheme.m != params.m:
            raise ConfigurationError(
                f"scheme.m ({scheme.m}) disagrees with params.m ({params.m})"
            )
        if index.w != params.w or index.tau != params.tau:
            raise ConfigurationError(
                f"index built for (w={index.w}, tau={index.tau}) but params "
                f"are (w={params.w}, tau={params.tau})"
            )
        self = cls.__new__(cls)
        self.params = params
        self.order = order
        self.scheme = scheme
        self.rank_docs = rank_docs
        self._removed = set(removed)
        self.index = index
        self.index_build_seconds = build_seconds
        self.index_epoch = index_epoch
        return self

    def compacted(self) -> "PKWiseSearcher":
        """The frozen form of this engine: ``self``, which is built or
        loaded frozen.  The live view answers with a frozen searcher over
        all its tiers (:meth:`repro.ingest.searcher.LSMSearcher.compacted`),
        which is what a snapshot save asks for."""
        return self

    @property
    def frozen(self) -> bool:
        """True when backed by a frozen compact index (no additions)."""
        return bool(getattr(self.index, "frozen", False))

    # ------------------------------------------------------------------
    # Tombstones (documents are added through the LSM write path)
    # ------------------------------------------------------------------
    def _remove_document(self, doc_id: int) -> None:
        """Stop returning matches from ``doc_id`` (tombstone removal).

        Postings are filtered at candidate-generation time rather than
        rewritten; memory is reclaimed only by rebuilding.  Removing an
        unknown id raises ``IndexError``.
        """
        if not 0 <= doc_id < len(self.rank_docs):
            raise IndexError(f"no document with id {doc_id}")
        self._removed.add(doc_id)
        self.index_epoch += 1

    @property
    def removed_documents(self) -> frozenset[int]:
        """Ids tombstoned by :meth:`_remove_document`."""
        return frozenset(self._removed)

    # ------------------------------------------------------------------
    # Fingerprint routing tier
    # ------------------------------------------------------------------
    #: The routing tier, ``None`` until the first routed query builds it.
    #: No file stores it: it is a function of the rank column.
    _routing_tier: FingerprintTier | None = None

    def routing_fingerprints(self) -> FingerprintTier:
        """The document fingerprint tier gating this searcher's queries.

        The first call — the first routed query in this process — builds
        it from the rank column (:meth:`FingerprintTier.from_rank_docs`)
        and keeps it; the build is deterministic, so serial, fork, and
        spawn workers reconstruct byte-identical tiers.
        """
        if self._routing_tier is None:
            self._routing_tier = FingerprintTier.from_rank_docs(
                self.rank_docs, w=self.params.w
            )
        return self._routing_tier

    def _route_query(self, query_ranks, stats: SearchStats):
        """Survivor mask (or ``None``) for one routed query."""
        tier = self.routing_fingerprints()
        allowed = tier.survivors(
            query_ranks, w=self.params.w, tau=self.params.tau
        )
        if allowed is not None:
            stats.routing_checked_docs += tier.ndocs
            stats.routing_pruned_docs += tier.ndocs - int(allowed.sum())
        return allowed

    # ------------------------------------------------------------------
    def search(
        self,
        query: Document,
        *,
        cancel: Callable[[], bool] | None = None,
        routing: RoutingPolicy | str | None = None,
    ) -> SearchResult:
        """All matching window pairs between ``query`` and the data.

        ``cancel`` is an optional cooperative-cancellation hook: it is
        invoked between query windows in the slide loop, and when it
        returns True the search aborts with
        :class:`~repro.errors.SearchCancelled`.  The serving layer uses
        this for per-request deadlines; a hook that always returns
        False costs one call per window.

        ``routing`` overrides the routing mode for this request
        (``None`` uses ``self.params.routing``): a mode string or a
        :class:`~repro.RoutingPolicy`.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return self._search(query, cancel, routing)
        with tracer.span("pkwise.search", query=query.name) as search_span:
            result = self._search(query, cancel, routing)
            search_span.annotate(
                results=len(result.pairs),
                candidate_windows=result.stats.candidate_windows,
                **result.stats.phase_seconds(),
            )
        return result

    #: Changed window events prefetched per ``probe_many`` call.  The
    #: signature stream does not depend on probe results, so the slide
    #: loop can generate a run of events first and resolve all their
    #: signatures in one vectorized probe; replaying the run afterwards
    #: applies each event's slice of the batch in window order, which
    #: keeps candidate/merge/verify semantics (and results) identical
    #: to event-at-a-time probing.  Larger runs amortize the fixed
    #: numpy cost of a batched probe over more signatures; 32 events at
    #: the typical ~9 signatures each lands in the regime where the
    #: compact index's vectorized gather beats the dict index.  It
    #: stays because the harness prefers it: event-at-a-time probing
    #: (a value of 1) reads ``search-routed`` p50 25.3 / 26.3 ms against
    #: 19.4 / 20.2 (PR 25, seeds 1-2; +18% while a slot memo existed).
    _PROBE_CHUNK_EVENTS = 32

    def _search(
        self,
        query: Document,
        cancel: Callable[[], bool] | None = None,
        routing: RoutingPolicy | str | None = None,
    ) -> SearchResult:
        """The untraced search kernel behind :meth:`search`.

        The slide loop is batch-first: it prefetches a run of up to
        :data:`_PROBE_CHUNK_EVENTS` changed window events from the
        signature stream, probes the index once for all their opened and
        closed signatures together (``probe_many``), then replays the
        run window by window, applying each event's slice of the
        batch's +1/-1 candidate deltas before merging and verifying
        that window.  The stream yields changed windows only; the
        windows between two events are verified against the merged
        candidates carried from the earlier one.  Phase timing is
        boundary timing — one running clock, read once per phase
        actually executed, so an unchanged window with nothing to
        verify costs no clock reads at all (the per-section scheme
        needed five per window); the few untimed instructions between
        phases land in the next boundary's reading, so the three
        phase times sum to the time of the whole loop.
        """
        stats = SearchStats()
        params = self.params
        w, tau = params.w, params.tau
        query_ranks = self.order.rank_document(query)
        if len(query_ranks) < w:
            return SearchResult(pairs=[], stats=stats)

        # Routing gate: one vectorized fingerprint pass decides which
        # documents may participate before any signature is generated.
        policy = params.routing if routing is None else routing
        allowed = None
        if RoutingPolicy.from_dict(policy).enabled:
            clock = time.perf_counter
            routing_start = clock()
            allowed = self._route_query(query_ranks, stats)
            stats.routing_fingerprint_time += clock() - routing_start
            if allowed is not None and not allowed.any():
                return SearchResult(pairs=[], stats=stats)

        stream = SignatureStream(query_ranks, w, tau, self.scheme)
        verifier = IntervalVerifier(query_ranks, w, tau)
        rank_slice = self.rank_docs.rank_slice
        index = self.index
        merge_gap = w // 2
        chunk_target = self._PROBE_CHUNK_EVENTS

        candidates: Counter[WindowInterval] = Counter()
        merged: list[WindowInterval] = []
        removed = self._removed
        pairs = []

        events = stream.events()
        clock = time.perf_counter
        last = clock()

        def verify_window(start: int) -> None:
            """Verify the carried ``merged`` intervals against window ``start``."""
            nonlocal last
            if cancel is not None and cancel():
                raise SearchCancelled(
                    f"search of {query.name!r} cancelled at window {start}",
                    windows_processed=start,
                )
            if merged:
                verifier.advance_to(start)
                for doc_id, u, v in merged:
                    pairs.extend(
                        verifier.verify_interval(doc_id, rank_slice, u, v)
                    )
                now = clock()
                stats.verify_time += now - last
                last = now

        next_window = 0  # first window not verified yet
        finished = False
        while not finished:
            # Signature phase: prefetch a run of changed-window events
            # (the stream yields no others, and ends with the final
            # close).  Each event's opened-then-closed signatures go
            # into one flat probe list; `spans` remembers its slice.
            chunk = list(islice(events, chunk_target))
            finished = chunk[-1].final
            if finished:
                chunk.pop()
            spans: list = []
            probe_sigs: list = []
            probe_signs: list = []
            for event in chunk:
                lo = len(probe_sigs)
                probe_sigs.extend(event.opened)
                probe_sigs.extend(event.closed)
                probe_signs.extend((1,) * len(event.opened))
                probe_signs.extend((-1,) * len(event.closed))
                spans.append((lo, len(probe_sigs)))
            now = clock()
            stats.signature_time += now - last
            last = now

            # Candidate phase, part 1: one vectorized probe for the
            # whole run, decoded to lists once.
            if probe_sigs:
                batch = index.probe_many(probe_sigs, probe_signs)
                stats.probe_batches += 1
                stats.probe_signatures += batch.probed
                stats.postings_entries += batch.entries
                if removed:
                    batch = batch.without_docs(removed)
                if allowed is not None:
                    batch = batch.where_docs(allowed)
                hit_docs = batch.docs.tolist()
                hit_us = batch.us.tolist()
                hit_vs = batch.vs.tolist()
                hit_signs = batch.signs.tolist()
                bounds = batch.entry_bounds().tolist()
                now = clock()
                stats.candidate_time += now - last
                last = now

            # Replay the run in window order.  The windows before an
            # event generate what the previous event's window did, so
            # they meet the carried `merged` unchanged; semantics per
            # window are exactly the event-at-a-time loop's.
            for event, span in zip(chunk, spans):
                for start in range(next_window, event.start):
                    verify_window(start)
                next_window = event.start + 1
                for k in range(bounds[span[0]], bounds[span[1]]):
                    interval = WindowInterval(hit_docs[k], hit_us[k], hit_vs[k])
                    count = candidates[interval] + hit_signs[k]
                    if count <= 0:
                        del candidates[interval]
                    else:
                        candidates[interval] = count
                merged = merge_intervals(candidates.keys(), merge_gap)
                # Verification state lives as long as its interval's
                # extent: what this merge did not keep starts over.
                verifier.retain(merged)
                now = clock()
                stats.candidate_time += now - last
                last = now
                verify_window(event.start)
        for start in range(next_window, len(query_ranks) - w + 1):
            verify_window(start)

        stats.signature_tokens = stream.generated_token_cost
        stats.signatures_generated = stream.generated_signatures
        stats.shared_windows = stream.shared_windows
        stats.changed_windows = stream.changed_windows
        stats.hash_ops = verifier.hash_ops
        stats.candidate_windows = verifier.candidate_windows
        stats.verify_carried = verifier.verify_carried
        stats.num_results = len(pairs)
        return SearchResult(pairs=pairs, stats=stats)

    def close(self) -> None:
        """Release resources (no-op; in-memory index). Idempotent."""

    def __repr__(self) -> str:
        return (
            f"PKWiseSearcher(w={self.params.w}, tau={self.params.tau}, "
            f"k_max={self.scheme.k_max}, m={self.scheme.m}, index={self.index!r})"
        )
