"""Weighted local similarity search (Appendix C).

Each token carries a weight; a pair of windows matches when the
accumulated weight of their multiset intersection reaches a threshold:
``wt(O(x, y)) >= theta``.  The prefix of a window becomes the shortest
head whose *weighted coverage* exceeds ``wt(x) - theta``: the cheapest
way for an adversary to affect every signature of a class-``i`` group is
to delete its lightest tokens, and it must delete all but ``i - 1``.

The searcher mirrors Algorithm 2 (no interval sharing — window weights
differ between adjacent windows, so the budget and hence the prefix
length shift every slide, eroding the sharing the unweighted algorithm
exploits; the paper also presents the weighted case without intervals).
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Callable, Sequence
from typing import NamedTuple

from ..corpus import Document, DocumentCollection
from ..errors import ConfigurationError
from ..ordering import GlobalOrder
from ..partition.scheme import PartitionScheme
from ..signatures.generate import Signature, signatures_from_prefix
from ..signatures.prefix import weighted_prefix_length
from ..windows.slider import WindowSlider
from .base import SearchStats


class WeightedMatchPair(NamedTuple):
    """A weighted result: intersection weight instead of overlap count."""

    doc_id: int
    data_start: int
    query_start: int
    intersection_weight: float


class WeightedSearchResult(NamedTuple):
    """Weighted matches plus the stats of producing them.

    A named tuple so existing ``pairs, stats = searcher.search(query)``
    unpacking keeps working while the attribute access
    (``result.pairs`` / ``result.stats``) matches
    :class:`~repro.core.base.SearchResult`, letting the weighted searcher
    satisfy the :class:`repro.api.Searcher` protocol and run through
    the shared workload harness.
    """

    pairs: list[WeightedMatchPair]
    stats: SearchStats


#: Sentinel signature for windows whose full weighted coverage cannot
#: exceed their error budget (possible when k_max > 1: the combination
#: "waste" of heavy tokens may exceed theta).  Such windows cannot be
#: filtered safely, so data windows are indexed under this signature
#: (probed by every query window) and query windows in this state verify
#: against all data windows.  With the default single-class scheme the
#: sentinel never triggers: coverage equals wt(x) > wt(x) - theta.
UNIVERSAL_SIGNATURE: Signature = (-(2**60),)


def weighted_overlap(
    x: Sequence[int], y: Sequence[int], weight_of: Callable[[int], float]
) -> float:
    """``wt(x ∩ y)`` = sum over tokens of min-multiplicity * weight."""
    counts_x = Counter(x)
    counts_y = Counter(y)
    if len(counts_x) > len(counts_y):
        counts_x, counts_y = counts_y, counts_x
    total = 0.0
    for rank, count in counts_x.items():
        other = counts_y.get(rank)
        if other:
            total += min(count, other) * weight_of(rank)
    return total


class WeightedPKWiseSearcher:
    """Partitioned k-wise signatures under token weights.

    Parameters
    ----------
    data:
        Data collection.
    w:
        Window size.
    theta_weight:
        Minimum intersection weight for a match.
    weight_of_token:
        Maps *token ids* to positive weights.  Internally converted to a
        by-rank table; tokens first seen in queries get
        ``default_weight``.
    scheme:
        Partition scheme over ranks; defaults to a single class
        (standard weighted prefix filtering).  Because the weighted
        budget ``wt(x) - theta`` varies per window, Theorem 2's fixed
        prefix-length bound does not apply; instead the prefix simply
        stops at the window end when the budget cannot be covered, which
        keeps the filter correct (the whole window is the prefix).
    """

    name = "pkwise-weighted"

    def __init__(
        self,
        data: DocumentCollection,
        w: int,
        theta_weight: float,
        weight_of_token: Callable[[int], float],
        scheme: PartitionScheme | None = None,
        order: GlobalOrder | None = None,
        default_weight: float = 1.0,
    ) -> None:
        if theta_weight <= 0:
            raise ConfigurationError(
                f"theta_weight must be positive, got {theta_weight}"
            )
        if default_weight <= 0:
            raise ConfigurationError(
                f"default_weight must be positive, got {default_weight}"
            )
        self.w = w
        self.theta_weight = theta_weight
        self.default_weight = default_weight
        self.order = order if order is not None else GlobalOrder(data, w)
        self.scheme = (
            scheme
            if scheme is not None
            else PartitionScheme.single(self.order.universe_size)
        )
        # Weight table indexed by rank; negative ranks use the default.
        self._rank_weight: list[float] = [
            float(weight_of_token(self.order.token_of_rank(rank)))
            for rank in range(self.order.universe_size)
        ]
        for rank, weight in enumerate(self._rank_weight):
            if weight <= 0:
                raise ConfigurationError(
                    f"token weights must be positive; rank {rank} has {weight}"
                )
        self.rank_docs: list[list[int]] = [
            self.order.rank_document(document, admit=True) for document in data
        ]
        build_start = time.perf_counter()
        self._postings: dict[Signature, list[tuple[int, int]]] = {}
        for doc_id, ranks in enumerate(self.rank_docs):
            self._index_document(doc_id, ranks)
        self.index_build_seconds = time.perf_counter() - build_start

    # ------------------------------------------------------------------
    def weight_of_rank(self, rank: int) -> float:
        """Weight of the token at ``rank`` (default for query-only)."""
        if rank < 0:
            return self.default_weight
        return self._rank_weight[rank]

    def _window_signatures(
        self, sorted_ranks: Sequence[int]
    ) -> tuple[list[Signature], bool]:
        """Signatures of a window plus whether it is unfilterable.

        Returns ``(signatures, fallback)``; ``fallback`` is True when
        the window's total weighted coverage cannot exceed its error
        budget, in which case prefix filtering gives no guarantee for it
        (see :data:`UNIVERSAL_SIGNATURE`).
        """
        window_weight = sum(self.weight_of_rank(rank) for rank in sorted_ranks)
        budget = window_weight - self.theta_weight
        if budget < 0:
            # Window too light to ever reach theta; it can never match.
            return [], False
        length = weighted_prefix_length(
            sorted_ranks, self.weight_of_rank, budget, self.scheme
        )
        signatures = signatures_from_prefix(list(sorted_ranks[:length]), self.scheme)
        if length == len(sorted_ranks):
            # Whole window is the prefix; check the budget was actually
            # exceeded, otherwise filtering is unsound for this window.
            if self._weighted_coverage(sorted_ranks) <= budget:
                return signatures, True
        return signatures, False

    def _weighted_coverage(self, sorted_ranks: Sequence[int]) -> float:
        """Total weighted coverage of a token multiset (Appendix C)."""
        groups: dict[int, list[float]] = {}
        for rank in sorted_ranks:
            groups.setdefault(self.scheme.group_key(rank), []).append(
                self.weight_of_rank(rank)
            )
        total = 0.0
        for key, weights in groups.items():
            class_index = key // self.scheme.m
            if len(weights) >= class_index:
                weights.sort()
                total += sum(weights[: len(weights) - class_index + 1])
        return total

    def _index_document(self, doc_id: int, ranks: Sequence[int]) -> None:
        slider = WindowSlider(ranks, self.w)
        for start, _outgoing, _incoming in slider.slides():
            signatures, fallback = self._window_signatures(slider.window)
            keys = set(signatures)
            if fallback:
                keys.add(UNIVERSAL_SIGNATURE)
            for signature in keys:
                self._postings.setdefault(signature, []).append((doc_id, start))

    # ------------------------------------------------------------------
    def search(self, query: Document) -> WeightedSearchResult:
        """All weighted matches of ``query`` against the data."""
        stats = SearchStats()
        w = self.w
        query_ranks = self.order.rank_document(query)
        if len(query_ranks) < w:
            return WeightedSearchResult([], stats)

        pairs: list[WeightedMatchPair] = []
        weight_of = self.weight_of_rank
        slider = WindowSlider(query_ranks, w)
        for start, _outgoing, _incoming in slider.slides():
            t0 = time.perf_counter()
            signatures, fallback = self._window_signatures(slider.window)
            stats.signatures_generated += len(signatures)
            stats.signature_tokens += sum(len(s) for s in signatures)
            t1 = time.perf_counter()
            stats.signature_time += t1 - t0

            candidates: set[tuple[int, int]] = set()
            if fallback:
                # Unfilterable query window: every data window is a
                # candidate (rare; impossible under the default scheme).
                for doc_id, ranks in enumerate(self.rank_docs):
                    for data_start in range(max(0, len(ranks) - w + 1)):
                        candidates.add((doc_id, data_start))
            else:
                probe_keys = set(signatures)
                probe_keys.add(UNIVERSAL_SIGNATURE)
                for signature in probe_keys:
                    postings = self._postings.get(signature, ())
                    stats.postings_entries += len(postings)
                    candidates.update(postings)
            t2 = time.perf_counter()
            stats.candidate_time += t2 - t1

            query_window = query_ranks[start : start + w]
            for doc_id, data_start in candidates:
                stats.candidate_windows += 1
                weight = weighted_overlap(
                    self.rank_docs[doc_id][data_start : data_start + w],
                    query_window,
                    weight_of,
                )
                if weight >= self.theta_weight:
                    pairs.append(
                        WeightedMatchPair(doc_id, data_start, start, weight)
                    )
            stats.verify_time += time.perf_counter() - t2

        stats.num_results = len(pairs)
        return WeightedSearchResult(pairs, stats)

    def close(self) -> None:
        """Release resources (no-op; in-memory postings). Idempotent."""
