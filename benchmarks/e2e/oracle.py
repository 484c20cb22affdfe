"""Exact expected pairs, computed without any code from ``repro``.

The benchmark compares every reply with this oracle, so it has to be
(a) independent of the engine it judges and (b) cheap enough to cover
every distinct query inside the run-time cap.  A routing-off dict-index
``PKWiseSearcher`` costs as much as the measured query itself (verification
dominates), which the cap cannot pay, so the oracle is a numpy filter plus
an exact count:

* a data window can overlap a query window in at least ``w - tau``
  tokens only if at least ``w - tau`` of its positions hold a token that
  occurs *somewhere* in the query — one table lookup and one cumulative
  sum over the corpus finds those windows (a handful around each reused
  passage, none elsewhere);
* for each surviving data window the multiset overlap with every query
  window is ``sum_t min(count_data(t), count_query_window(t))``, taken
  from a per-query table of window counts.

The filter is a necessary condition, so the result is exact.  ``run.py``
anchors it in every set-up against ``baselines/bruteforce.py`` on a small
subsample and against the engine's own dict index on two queries.
"""

from __future__ import annotations

import numpy as np


class Oracle:
    """Brute-force-equivalent window pairs over a growing document list."""

    def __init__(self, documents, vocabulary_size: int, w: int, tau: int) -> None:
        lengths = np.fromiter((len(d) for d in documents), dtype=np.int64,
                              count=len(documents))
        self.offsets = np.concatenate([[0], np.cumsum(lengths)])
        self.tokens = (
            np.concatenate([np.asarray(d, dtype=np.int64) for d in documents])
            if len(documents) else np.empty(0, dtype=np.int64)
        )
        self.vocabulary_size = vocabulary_size
        self.w = w
        self.tau = tau

    def expected(self, query, ndocs: int | None = None, removed=()) -> list[tuple]:
        """Sorted ``(doc_id, data_start, query_start, overlap)`` tuples.

        ``ndocs`` limits the corpus to its first ``ndocs`` documents and
        ``removed`` drops tombstoned ids: the state of a live index part
        way through an ingest sequence.
        """
        w, need = self.w, self.w - self.tau
        query = np.asarray(query, dtype=np.int64)
        num_query_windows = len(query) - w + 1
        if num_query_windows <= 0:
            return []
        if ndocs is None:
            ndocs = len(self.offsets) - 1
        end = int(self.offsets[ndocs])
        if end < w:
            return []
        distinct, inverse = np.unique(query, return_inverse=True)
        slot = np.full(self.vocabulary_size, -1, dtype=np.int64)
        slot[distinct] = np.arange(len(distinct))
        data_slots = slot[self.tokens[:end]]
        running = np.concatenate([[0], np.cumsum(data_slots >= 0)])
        starts = np.flatnonzero(running[w:] - running[:-w] >= need)
        if starts.size == 0:
            return []
        docs = np.searchsorted(self.offsets, starts, side="right") - 1
        inside = starts + w <= self.offsets[docs + 1]
        if removed:
            inside &= ~np.isin(docs, np.fromiter(removed, dtype=np.int64))
        starts, docs = starts[inside], docs[inside]

        # window_counts[t, y] = occurrences of distinct token t in query
        # window y, from a cumulative one-hot table.
        one_hot = np.zeros((len(distinct), len(query) + 1), dtype=np.int32)
        one_hot[inverse, np.arange(1, len(query) + 1)] = 1
        np.cumsum(one_hot, axis=1, out=one_hot)
        window_counts = one_hot[:, w:] - one_hot[:, :-w]

        pairs = []
        for start, doc in zip(starts.tolist(), docs.tolist()):
            present = data_slots[start:start + w]
            rows, counts = np.unique(present[present >= 0], return_counts=True)
            overlap = np.minimum(window_counts[rows], counts[:, None]).sum(axis=0)
            data_start = start - int(self.offsets[doc])
            for query_start in np.flatnonzero(overlap >= need).tolist():
                pairs.append((doc, data_start, query_start, int(overlap[query_start])))
        pairs.sort()
        return pairs
