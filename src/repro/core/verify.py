"""Rolling verification of candidate intervals (Section 4.3).

:class:`IntervalVerifier` owns the *query-side* multiplicity table,
updated in two hash operations as the query window slides, and verifies
candidate intervals by filling a data-side table once per interval and
rolling it across the interval in four operations per step.  It applies
the paper's early-termination rule: when window ``W(d, j)`` misses the
threshold by ``delta`` (``w - O = tau + delta``), the next possible
result is ``W(d, j + delta)``; if that exceeds the interval end, the
rest of the interval is abandoned without rolling through it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

import numpy as np

from ..errors import ReproError
from .base import MatchPair


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
        self, doc_id: int, doc_ranks: Sequence[int], u: int, v: int
    ) -> list[MatchPair]:
        """All matches of the current query window in ``d[u, v]``.

        The rolling overlap deltas are vectorized across the interval:
        one numpy comparison finds every slide position in ``[u, v)``
        whose outgoing and incoming tokens differ, and the roll then
        visits only those — content-sharing text makes most slides
        no-ops, which the scalar loop still paid a Python iteration
        (and two list indexings) to discover.  Early-termination jumps
        skip changed positions wholesale by advancing the cursor.
        """
        w = self.w
        tau = self.tau
        query_counts = self._query_counts
        window = doc_ranks[u : u + w]
        data_counts: Counter[int] = Counter(window)
        # Initial overlap: fill (w ops) + lookups (w ops) = 2w, per paper.
        self.hash_ops += 2 * w
        overlap = 0
        for rank, count in data_counts.items():
            other = query_counts.get(rank)
            if other:
                overlap += min(count, other)

        if v > u:
            outgoing_run = np.asarray(doc_ranks[u:v], dtype=np.int64)
            incoming_run = np.asarray(doc_ranks[u + w : v + w], dtype=np.int64)
            changes = (np.flatnonzero(outgoing_run != incoming_run) + u).tolist()
        else:
            changes = []
        num_changes = len(changes)
        cursor = 0

        matches: list[MatchPair] = []
        query_start = self.query_start
        j = u
        while True:
            self.candidate_windows += 1
            deficit = (w - overlap) - tau
            if deficit <= 0:
                matches.append(MatchPair(doc_id, j, query_start, overlap))
                step = 1
            else:
                # Windows j+1 .. j+deficit-1 cannot match (overlap grows
                # by at most 1 per slide); jump to j+deficit.
                step = deficit
            if j + step > v:
                break
            # Roll `step` slides; only content-changing positions touch
            # the table, 4 hash ops each.
            j += step
            while cursor < num_changes and changes[cursor] < j:
                position = changes[cursor]
                cursor += 1
                outgoing = doc_ranks[position]
                incoming = doc_ranks[position + w]
                self.hash_ops += 4
                old = data_counts[outgoing]
                if query_counts.get(outgoing, 0) >= old:
                    overlap -= 1
                if old == 1:
                    del data_counts[outgoing]
                else:
                    data_counts[outgoing] = old - 1
                new = data_counts.get(incoming, 0) + 1
                data_counts[incoming] = new
                if query_counts.get(incoming, 0) >= new:
                    overlap += 1
        return matches
