"""Adapt: adaptive prefix filtering on materialized windows.

Reproduces the framework of Wang, Li & Feng, "Can we beat the prefix
filtering?" (SIGMOD 2012) as used by the paper's Section 7: every data
window is materialized as an object; its prefix is indexed up to length
``tau + k_limit``; for each *query* window the algorithm chooses the
prefix length ``tau + k`` adaptively with a cost model — extending the
prefix by one token costs the next token's postings accesses but
tightens the candidate condition from "share >= k" to "share >= k + 1".

Reproduction notes (documented deviations from the original system):

* Data windows are indexed once at the maximal prefix length instead of
  keeping per-length delta indexes.  Candidates are counted against the
  full indexed prefix, which is a superset of the length-matched count,
  so completeness is preserved (Lemma 2 applies a fortiori); the cost is
  a few extra candidates, not missed results.
* The candidate-size estimate for ``k + 1`` is the current number of
  windows with at least ``k + 1`` hits plus the next token's postings
  length — an upper bound in the spirit of the original estimator.

Multiset semantics use occurrence-indexed keys as in
:mod:`repro.baselines.prefix_join`.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from ..corpus import Document, DocumentCollection
from ..core.base import MatchPair, SearchResult, SearchStats
from ..ordering import GlobalOrder
from ..params import SearchParams
from ..windows.rolling import window_overlap
from ..windows.slider import WindowSlider
from .base_runner import BaselineSearcher
from .prefix_join import occurrence_keys


class AdaptSearcher(BaselineSearcher):
    """Adaptive prefix filtering over materialized windows."""

    name = "adapt"

    def __init__(
        self,
        data: DocumentCollection,
        params: SearchParams,
        k_limit: int = 3,
        order: GlobalOrder | None = None,
        access_cost: float = 2.0,
        verify_cost_per_window: float | None = None,
    ) -> None:
        super().__init__(data, params, order)
        if k_limit < 1:
            raise ValueError(f"k_limit must be >= 1, got {k_limit}")
        # Prefix cannot exceed the window.
        self.k_limit = min(k_limit, params.w - params.tau)
        self.access_cost = access_cost
        self.verify_cost = (
            verify_cost_per_window
            if verify_cost_per_window is not None
            else 2.0 * params.w  # Equation 4's per-candidate hash ops
        )
        build_start = time.perf_counter()
        prefix_len = params.tau + self.k_limit
        self._postings: dict[tuple[int, int], list[tuple[int, int]]] = {}
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
        w, tau = self.params.w, self.params.tau
        query_ranks = self.order.rank_document(query)
        if len(query_ranks) < w:
            return SearchResult(pairs=[], stats=stats)

        pairs: list[MatchPair] = []
        max_prefix = tau + self.k_limit
        slider = WindowSlider(query_ranks, w)
        for start, _outgoing, _incoming in slider.slides():
            t0 = time.perf_counter()
            prefix = slider.window[:max_prefix]
            keys = occurrence_keys(prefix)
            stats.signatures_generated += len(keys)
            stats.signature_tokens += len(keys)
            t1 = time.perf_counter()
            stats.signature_time += t1 - t0

            # Probe the mandatory (tau + 1)-prefix, then extend while the
            # cost model says extending is cheaper than verifying the
            # current candidate set.
            hit_counts: Counter[tuple[int, int]] = Counter()
            histogram: defaultdict[int, int] = defaultdict(int)

            def probe(key: tuple[int, int]) -> None:
                """Fetch one key's postings into the hit counters."""
                postings = self._postings.get(key, ())
                stats.postings_entries += len(postings)
                for window in postings:
                    old = hit_counts[window]
                    hit_counts[window] = old + 1
                    if old:
                        histogram[old] -= 1
                    histogram[old + 1] += 1

            for key in keys[: tau + 1]:
                probe(key)
            k = 1
            while k < self.k_limit and tau + k < len(keys):
                next_key = keys[tau + k]
                next_postings = len(self._postings.get(next_key, ()))
                at_least_k = sum(
                    count for hits, count in histogram.items() if hits >= k
                )
                at_least_k1 = sum(
                    count for hits, count in histogram.items() if hits >= k + 1
                )
                cost_stay = at_least_k * self.verify_cost
                estimated_candidates = at_least_k1 + next_postings
                cost_extend = (
                    next_postings * self.access_cost
                    + estimated_candidates * self.verify_cost
                )
                if cost_extend >= cost_stay:
                    break
                probe(next_key)
                k += 1
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
