"""Rolling verification of candidate intervals (Section 4.3).

:class:`IntervalVerifier` owns the *query-side* multiplicity table,
updated in two hash operations as the query window slides, and verifies
candidate intervals by filling a data-side table once per interval and
rolling it across the interval in four operations per step.  It applies
the paper's early-termination rule: when window ``W(d, j)`` misses the
threshold by ``delta`` (``w - O = tau + delta``), the next possible
result is ``W(d, j + delta)``; if that exceeds the interval end, the
rest of the interval is abandoned without rolling through it.

The verifier is incremental along both axes.  Along the *data* axis it
rolls one table across an interval, as above.  Along the *query* axis
it carries, per live interval ``(doc_id, u, v)``, what a query slide
cannot change — the segment ``d[u : v + w]``, the first window's table,
the changed slide positions — and *updates* the first window's overlap
with two comparisons per query change instead of recomputing it
(:class:`_IntervalState`).  It does not skip calls: every (query window,
interval) is still verified, and returns what a fresh verifier would.

All three tables — the query window's, an interval's first window's and
the per-call copy rolled across it — are plain ``dict``s from rank to
multiplicity, so each of Eq. 4's hash operations is one C-level ``dict``
operation; an absent rank reads as 0 through ``.get``.

The verifier never sees a whole document: it reads ``d[u : v + w]``
through the rank container's ``rank_slice``, which every container a
search holds brings (a packed column, a memtable's growing one, the
tiered view over both).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from itertools import compress, count
from operator import ne

import numpy as np

from ..errors import ReproError
from .base import MatchPair


class _IntervalState:
    """What one query carries about a live merged interval ``d[u, v]``.

    ``ranks`` (``d[u : v + w]``), ``first`` (the first window's table,
    never written after this) and ``changes`` (the slides ``p`` with
    ``ranks[p] != ranks[p + w]``, built on first need) are the same for
    every query window.  ``overlap`` is the first window's overlap with
    query window ``stamp``; a new state has no such window yet.
    """

    __slots__ = ("ranks", "first", "changes", "overlap", "stamp")

    def __init__(self, ranks: list[int], w: int) -> None:
        self.ranks = ranks
        self.first: dict[int, int] = dict(Counter(ranks[:w]))
        self.changes: list[int] | None = None
        self.overlap = 0
        self.stamp = -1


class IntervalVerifier:
    """Verifies query windows against data window intervals.

    Parameters
    ----------
    query_ranks:
        The query document as a rank sequence.
    w, tau:
        Search parameters.

    The verifier is positional: :meth:`advance_to` moves the query-side
    table (a ``dict`` that never holds a zero) to a given query window
    (normally one slide at a time), then :meth:`verify_interval` checks
    one candidate interval of one data document against the current
    query window.

    One verifier serves one query against one rank container: the state
    it carries from window to window is keyed by ``(doc_id, u, v)``
    alone.  :meth:`retain` bounds that state to the intervals still
    live; a caller that never calls it keeps one state per distinct
    interval it has verified.
    """

    def __init__(self, query_ranks: Sequence[int], w: int, tau: int) -> None:
        self.query_ranks = query_ranks
        self.w = w
        self.tau = tau
        self.query_start = 0
        self._query_counts: dict[int, int] = dict(Counter(query_ranks[:w]))
        self.hash_ops = min(w, len(query_ranks))  # initial fill operations
        self.candidate_windows = 0
        #: ``verify_interval`` calls answered from a carried state.
        self.verify_carried = 0
        # Slide positions where the query window's content actually
        # changes (ranks[p] != ranks[p + w]), found with one vectorized
        # comparison up front; advance_to walks a cursor over these
        # instead of testing every slide in Python.
        if len(query_ranks) > w:
            column = np.asarray(query_ranks, dtype=np.int64)
            self._query_changes: list[int] = np.flatnonzero(
                column[:-w] != column[w:]
            ).tolist()
        else:
            self._query_changes = []
        self._changes_applied = 0
        # The last advance, as the carried states replay it: it left
        # window `_replay_from` and applied `_replay`, one (outgoing,
        # count before, incoming, count after) per query change.
        self._replay: list[tuple[int, int, int, int]] = []
        self._replay_from = 0
        self._states: dict[tuple[int, int, int], _IntervalState] = {}

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
        num_changes = len(changes)
        cursor = self._changes_applied
        replay = []
        while cursor < num_changes and changes[cursor] < query_start:
            position = changes[cursor]
            cursor += 1
            outgoing = ranks[position]
            incoming = ranks[position + w]
            before = counts[outgoing]
            if before == 1:
                del counts[outgoing]
            else:
                counts[outgoing] = before - 1
            after = counts.get(incoming, 0) + 1
            counts[incoming] = after
            replay.append((outgoing, before, incoming, after))
        self.hash_ops += 2 * len(replay)
        self._changes_applied = cursor
        self._replay = replay
        self._replay_from = self.query_start
        self.query_start = query_start

    # ------------------------------------------------------------------
    def retain(self, live: Iterable[tuple[int, int, int]]) -> None:
        """Drop the carried state of every interval not in ``live``.

        An interval whose extent changed is another ``(doc_id, u, v)``:
        its old state goes, and its next verification starts a new one.
        """
        states = self._states
        if states:
            self._states = {key: states[key] for key in live if key in states}

    # ------------------------------------------------------------------
    def verify_interval(
        self,
        doc_id: int,
        rank_slice: Callable[[int, int, int], list[int]],
        u: int,
        v: int,
    ) -> list[MatchPair]:
        """All matches of the current query window in ``d[u, v]``.

        ``rank_slice(doc_id, lo, hi)`` is the rank container's
        ``rank_slice``; only ``d[u : v + w]`` — the
        ranks this interval can touch — is fetched, once per carried
        state, and every position below is relative to that segment.
        The work is ordered so that the cheapest decisive test comes
        first.  The first window's overlap is brought to the current
        query window: a state last verified one :meth:`advance_to` ago
        replays that advance in two comparisons per query change; any
        other (a new one included) intersects the two tables.  When the
        first window's deficit already exceeds ``v - u`` the interval is
        left at once (overlap grows by at most 1 per slide, so no window
        of it can match — the jump rule below, applied to the first
        window).  Only a surviving interval needs its changed slide
        positions — a slide whose outgoing and incoming ranks are equal
        is never visited — and rolls a copy of the first table across
        them; early-termination jumps skip changed positions wholesale
        by advancing the cursor.
        """
        w = self.w
        query_counts = self._query_counts
        query_start = self.query_start
        key = (doc_id, u, v)
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _IntervalState(
                rank_slice(doc_id, u, v + w), w
            )
        else:
            self.verify_carried += 1
        first = state.first
        if state.stamp == self._replay_from:
            # overlap = sum of min(q[r], d[r]); one unit of q[r] moves
            # the min iff d[r] has at least that many.
            overlap = state.overlap
            first_get = first.get
            for outgoing, before, incoming, after in self._replay:
                if first_get(outgoing, 0) >= before:
                    overlap -= 1
                if first_get(incoming, 0) >= after:
                    overlap += 1
        else:
            overlap = 0
            for rank in query_counts.keys() & first.keys():
                ours = query_counts[rank]
                theirs = first[rank]
                overlap += ours if ours < theirs else theirs
        state.overlap = overlap
        state.stamp = query_start

        # A window's deficit — Section 4.3's delta — is reach - overlap.
        reach = w - self.tau
        last = v - u
        if reach - overlap > last:
            self.hash_ops += 2 * w
            self.candidate_windows += 1
            return []

        ranks = state.ranks
        changes = state.changes
        if changes is None:
            # Slides p (segment-relative) with ranks[p] != ranks[p + w],
            # in one C-level pass; at interval lengths a list->array
            # conversion costs more than the whole comparison does here.
            changes = state.changes = list(
                compress(count(), map(ne, ranks, ranks[w:]))
            )
        num_changes = len(changes)
        cursor = 0  # changes rolled so far

        matches: list[MatchPair] = []
        data_counts = dict(first)
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
                # A rank that left stays at 0: one store measured cheaper
                # than a branch and a ``del``; the copy dies with this call.
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
