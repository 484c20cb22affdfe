"""Rolling verification of candidate intervals (Section 4.3).

:class:`IntervalVerifier` owns the *query-side* multiplicity table,
updated in two hash operations as the query window slides, and verifies
candidate intervals by filling a data-side table once per interval and
rolling it across the interval in four operations per step.  It applies
the paper's early-termination rule: when window ``W(d, j)`` misses the
threshold by ``delta`` (``w - O = tau + delta``), the next possible
result is ``W(d, j + delta)``; if that exceeds the interval end, the
rest of the interval is abandoned without rolling through it.

The verifier never sees a whole document: it reads ``d[u : v + w]``
through the rank container's slice accessor (:func:`slice_accessor`),
one kernel for packed columns, tiered views and plain lists.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from itertools import compress, count
from operator import ne

import numpy as np

from ..errors import ReproError
from .base import MatchPair


def slice_accessor(rank_docs) -> Callable[[int, int, int], list[int]]:
    """``rank_slice(doc_id, lo, hi) -> d[lo:hi]`` as a plain list.

    A container that can cut the slice without decoding the document
    (:class:`~repro.index.PackedRankDocs`,
    :class:`~repro.ingest.tiered.TieredRankDocs`) brings its own
    ``rank_slice``; list-backed documents are sliced as lists.  Resolved
    once per query, so the verifier's kernel never asks what it holds.
    """
    try:
        return rank_docs.rank_slice
    except AttributeError:
        return lambda doc_id, lo, hi: rank_docs[doc_id][lo:hi]


class IntervalVerifier:
    """Verifies query windows against data window intervals.

    Parameters
    ----------
    query_ranks:
        The query document as a rank sequence.
    w, tau:
        Search parameters.

    The verifier is positional: :meth:`advance_to` moves the query-side
    table to a given query window (normally one slide at a time), then
    :meth:`verify_interval` checks one candidate interval of one data
    document against the current query window.
    """

    def __init__(self, query_ranks: Sequence[int], w: int, tau: int) -> None:
        self.query_ranks = query_ranks
        self.w = w
        self.tau = tau
        self.query_start = 0
        self._query_counts: Counter[int] = Counter(query_ranks[:w])
        self.hash_ops = min(w, len(query_ranks))  # initial fill operations
        self.candidate_windows = 0
        # Slide positions where the query window's content actually
        # changes (ranks[p] != ranks[p + w]), found with one vectorized
        # comparison up front; advance_to then touches only these
        # instead of testing every slide in Python.
        if len(query_ranks) > w:
            column = np.asarray(query_ranks, dtype=np.int64)
            self._query_changes = np.flatnonzero(column[:-w] != column[w:])
        else:
            self._query_changes = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    def advance_to(self, query_start: int) -> None:
        """Slide the query-side table forward to ``query_start``.

        ``query_start`` must be a valid window start: at most
        ``len(query_ranks) - w`` (the last full window).  Advancing past
        that would read beyond the query; it raises
        :class:`~repro.errors.ReproError` naming the offending positions
        instead of an opaque ``IndexError`` from deep in the slide loop.
        """
        if query_start < self.query_start:
            raise ValueError(
                f"cannot slide query backwards ({self.query_start} -> {query_start})"
            )
        last_start = len(self.query_ranks) - self.w
        if query_start > last_start:
            raise ReproError(
                f"cannot advance verifier to query window {query_start}: "
                f"last valid window start is {last_start} "
                f"(query length {len(self.query_ranks)}, w={self.w})"
            )
        counts = self._query_counts
        ranks = self.query_ranks
        w = self.w
        changes = self._query_changes
        lo, hi = np.searchsorted(changes, (self.query_start, query_start))
        for position in changes[lo:hi].tolist():
            outgoing = ranks[position]
            incoming = ranks[position + w]
            old = counts[outgoing]
            if old == 1:
                del counts[outgoing]
            else:
                counts[outgoing] = old - 1
            counts[incoming] += 1
            self.hash_ops += 2
        self.query_start = query_start

    # ------------------------------------------------------------------
    def verify_interval(
        self,
        doc_id: int,
        rank_slice: Callable[[int, int, int], list[int]],
        u: int,
        v: int,
    ) -> list[MatchPair]:
        """All matches of the current query window in ``d[u, v]``.

        ``rank_slice(doc_id, lo, hi)`` is the rank container's slice
        accessor (:func:`slice_accessor`); only ``d[u : v + w]`` — the
        ranks this interval can touch — is fetched, and every position
        below is relative to that segment.  The work is ordered so that
        the cheapest decisive test comes first: the first window's table
        and overlap are built, and when its deficit already exceeds
        ``v - u`` the interval is left at once (overlap grows by at most
        1 per slide, so no window of it can match — the jump rule below,
        applied to the first window).  Only a surviving interval finds
        its changed slide positions — a slide whose outgoing and
        incoming ranks are equal is never visited — and rolls across
        them; early-termination jumps skip changed positions wholesale
        by advancing the cursor.
        """
        w = self.w
        query_counts = self._query_counts
        ranks = rank_slice(doc_id, u, v + w)
        data_counts: Counter[int] = Counter(ranks[:w])
        overlap = 0
        for rank in query_counts.keys() & data_counts.keys():
            ours = query_counts[rank]
            theirs = data_counts[rank]
            overlap += ours if ours < theirs else theirs

        # A window's deficit — Section 4.3's delta — is reach - overlap.
        reach = w - self.tau
        last = v - u
        if reach - overlap > last:
            self.hash_ops += 2 * w
            self.candidate_windows += 1
            return []

        # Slides p (segment-relative) with ranks[p] != ranks[p + w], in
        # one C-level pass; at interval lengths a list->array conversion
        # costs more than the whole comparison does here.
        changes = list(compress(count(), map(ne, ranks, ranks[w:])))
        num_changes = len(changes)
        cursor = 0  # changes rolled so far

        matches: list[MatchPair] = []
        query_start = self.query_start
        query_get = query_counts.get
        data_get = data_counts.get
        candidate_windows = 0
        j = 0
        while True:
            candidate_windows += 1
            deficit = reach - overlap
            if deficit <= 0:
                matches.append(MatchPair(doc_id, u + j, query_start, overlap))
                step = 1
            else:
                # Windows j+1 .. j+deficit-1 cannot match (overlap grows
                # by at most 1 per slide); jump to j+deficit.
                step = deficit
            if j + step > last:
                break
            # Roll `step` slides; only content-changing positions touch
            # the table.
            j += step
            while cursor < num_changes and changes[cursor] < j:
                position = changes[cursor]
                cursor += 1
                outgoing = ranks[position]
                incoming = ranks[position + w]
                old = data_counts[outgoing]
                if query_get(outgoing, 0) >= old:
                    overlap -= 1
                # A rank that left stays in the table at 0 (``del`` on
                # a Counter is a Python-level call); the table dies
                # with this call.
                data_counts[outgoing] = old - 1
                new = data_get(incoming, 0) + 1
                data_counts[incoming] = new
                if query_get(incoming, 0) >= new:
                    overlap += 1
        # Eq. 4's abstract operations: the first window's fill and
        # lookups (2w, per paper), then 4 per rolled change.
        self.hash_ops += 2 * w + 4 * cursor
        self.candidate_windows += candidate_windows
        return matches
