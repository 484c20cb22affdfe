"""Prefix-filtering joins on materialized windows (Section 2.2).

Two classic baselines:

* :class:`StandardPrefixSearcher` — Lemma 1: index the first ``tau + 1``
  tokens of each data window; a candidate shares at least one prefix
  token with the query window's prefix.
* :class:`KPrefixSearcher` — Lemma 2 (extended prefix filtering): index
  the first ``tau + k`` tokens; a candidate shares at least ``k``.

Multiset semantics: "sharing t tokens" counts multiplicities (Example 2
of the paper: two A's count as two shared tokens).  We realize this by
keying postings on ``(token, occurrence_index)``: the j-th occurrence of
a token in a prefix only matches the j-th occurrence on the other side,
so per-window hit counts equal sum_t min(mult_q(t), mult_d(t)) without
any per-token bookkeeping at query time.
"""

from __future__ import annotations

import time
from collections import Counter

from ..corpus import Document, DocumentCollection
from ..core.base import MatchPair, SearchResult, SearchStats
from ..ordering import GlobalOrder
from ..params import SearchParams
from ..windows.rolling import window_overlap
from ..windows.slider import WindowSlider
from .base_runner import BaselineSearcher

#: Postings key: (rank, occurrence index within the prefix).
_OccToken = tuple[int, int]


def occurrence_keys(prefix_ranks: list[int]) -> list[_OccToken]:
    """Each prefix token keyed by its occurrence number (0-based)."""
    seen: Counter[int] = Counter()
    keys: list[_OccToken] = []
    for rank in prefix_ranks:
        keys.append((rank, seen[rank]))
        seen[rank] += 1
    return keys


class KPrefixSearcher(BaselineSearcher):
    """Fixed-k extended prefix filtering join (Lemma 2)."""

    def __init__(
        self,
        data: DocumentCollection,
        params: SearchParams,
        k: int = 1,
        order: GlobalOrder | None = None,
    ) -> None:
        super().__init__(data, params, order)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if params.tau + k > params.w:
            raise ValueError(
                f"prefix length tau + k = {params.tau + k} exceeds window "
                f"size {params.w}"
            )
        self.k = k
        self.name = f"{k}-prefix"
        build_start = time.perf_counter()
        self._postings: dict[_OccToken, list[tuple[int, int]]] = {}
        prefix_len = params.tau + k
        for doc_id, ranks in enumerate(self.rank_docs):
            slider = WindowSlider(ranks, params.w)
            for start, _outgoing, _incoming in slider.slides():
                prefix = slider.window[:prefix_len]
                for key in occurrence_keys(prefix):
                    self._postings.setdefault(key, []).append((doc_id, start))
        self.index_build_seconds = time.perf_counter() - build_start

    @property
    def index_entries(self) -> int:
        """Abstract index size: one entry per (key, window)."""
        return sum(len(postings) for postings in self._postings.values())

    # ------------------------------------------------------------------
    def search(self, query: Document) -> SearchResult:
        """All matching window pairs between ``query`` and the data."""
        stats = SearchStats()
        w, tau, k = self.params.w, self.params.tau, self.k
        query_ranks = self.order.rank_document(query)
        if len(query_ranks) < w:
            return SearchResult(pairs=[], stats=stats)

        pairs: list[MatchPair] = []
        prefix_len = tau + k
        slider = WindowSlider(query_ranks, w)
        for start, _outgoing, _incoming in slider.slides():
            t0 = time.perf_counter()
            prefix = slider.window[:prefix_len]
            keys = occurrence_keys(prefix)
            stats.signatures_generated += len(keys)
            stats.signature_tokens += len(keys)
            t1 = time.perf_counter()
            stats.signature_time += t1 - t0

            hit_counts: Counter[tuple[int, int]] = Counter()
            for key in keys:
                postings = self._postings.get(key, ())
                stats.postings_entries += len(postings)
                hit_counts.update(postings)
            candidates = [
                window for window, hits in hit_counts.items() if hits >= k
            ]
            t2 = time.perf_counter()
            stats.candidate_time += t2 - t1

            query_window = query_ranks[start : start + w]
            for doc_id, data_start in candidates:
                stats.candidate_windows += 1
                stats.hash_ops += 2 * w
                overlap = window_overlap(
                    self.rank_docs[doc_id][data_start : data_start + w],
                    query_window,
                )
                if w - overlap <= tau:
                    pairs.append(MatchPair(doc_id, data_start, start, overlap))
            stats.verify_time += time.perf_counter() - t2

        stats.num_results = len(pairs)
        return SearchResult(pairs=pairs, stats=stats)


class StandardPrefixSearcher(KPrefixSearcher):
    """Lemma 1: the classic 1-prefix filtering join."""

    def __init__(
        self,
        data: DocumentCollection,
        params: SearchParams,
        order: GlobalOrder | None = None,
    ) -> None:
        super().__init__(data, params, k=1, order=order)
        self.name = "prefix"
