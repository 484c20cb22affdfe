"""pkwise without interval sharing (Algorithm 2; "pkwise-nonint").

Every window — data and query — is processed individually: signatures
are generated from scratch per window, the index stores individual
windows, candidates are deduplicated per query window and each is
verified with a fresh overlap computation.  This is the paper's
Figure 6/8 comparison point isolating the benefit of interval sharing
from the benefit of partitioned k-wise signatures.
"""

from __future__ import annotations

import time

from ..corpus import Document, DocumentCollection
from ..errors import ConfigurationError
from ..index.inverted import WindowInvertedIndex
from ..ordering import GlobalOrder
from ..params import SearchParams
from ..partition.scheme import PartitionScheme
from ..signatures.generate import generate_signatures
from ..windows.rolling import window_overlap
from ..windows.slider import WindowSlider
from .base import MatchPair, SearchResult, SearchStats
from .pkwise import order_and_scheme


class PKWiseNonIntervalSearcher:
    """Partitioned k-wise signatures, windows processed individually."""

    name = "pkwise-nonint"

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
        self.rank_docs: list[list[int]] = [
            self.order.rank_document(document, admit=True) for document in data
        ]
        build_start = time.perf_counter()
        self.index = WindowInvertedIndex(params.w, params.tau, scheme)
        for doc_id, ranks in enumerate(self.rank_docs):
            self.index.index_document(doc_id, ranks)
        self.index_build_seconds = time.perf_counter() - build_start

    # ------------------------------------------------------------------
    def search(self, query: Document) -> SearchResult:
        """All matching window pairs between ``query`` and the data."""
        stats = SearchStats()
        w, tau = self.params.w, self.params.tau
        query_ranks = self.order.rank_document(query)
        if len(query_ranks) < w:
            return SearchResult(pairs=[], stats=stats)

        index = self.index
        rank_docs = self.rank_docs
        pairs: list[MatchPair] = []
        slider = WindowSlider(query_ranks, w)
        clock = time.perf_counter
        last = clock()
        for start, _outgoing, _incoming in slider.slides():
            signatures = generate_signatures(slider.window, tau, self.scheme)
            stats.signatures_generated += len(signatures)
            stats.signature_tokens += sum(len(s) for s in signatures)
            now = clock()
            stats.signature_time += now - last
            last = now

            # One batched probe per query window over the deduplicated
            # signature set; dedup order does not matter — candidates
            # are a set and the entry counter is order-independent.
            batch = index.probe_many(tuple(set(signatures)))
            stats.probe_batches += 1
            stats.probe_signatures += batch.probed
            stats.postings_entries += batch.entries
            candidates = set(zip(batch.docs.tolist(), batch.us.tolist()))
            now = clock()
            stats.candidate_time += now - last
            last = now

            query_window = query_ranks[start : start + w]
            for doc_id, data_start in candidates:
                stats.candidate_windows += 1
                stats.hash_ops += 2 * w
                overlap = window_overlap(
                    rank_docs[doc_id][data_start : data_start + w], query_window
                )
                if w - overlap <= tau:
                    pairs.append(MatchPair(doc_id, data_start, start, overlap))
            now = clock()
            stats.verify_time += now - last
            last = now

        stats.num_results = len(pairs)
        return SearchResult(pairs=pairs, stats=stats)

    def close(self) -> None:
        """Release resources (no-op; in-memory index). Idempotent."""

    def __repr__(self) -> str:
        return (
            f"PKWiseNonIntervalSearcher(w={self.params.w}, "
            f"tau={self.params.tau}, k_max={self.scheme.k_max})"
        )

