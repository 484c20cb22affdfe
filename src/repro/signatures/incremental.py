"""Incremental prefix-length maintenance: the core of Algorithm 5.

The paper's prefix maintenance algorithm (Section 4.1, Appendix A)
avoids recomputing the prefix per window: it keeps the window sorted,
applies the outgoing/incoming token in O(log w), and *repairs* the
prefix length — whose coverage can only land on ``tau``, ``tau + 1`` or
``tau + 2`` after a slide — by extending or shrinking at the boundary,
including the Corollary 2 rule that a minimal prefix never ends in
non-covering tokens.

:class:`IncrementalPrefixLength` implements that repair loop over a
bisect-maintained sorted list, keeping per-group token counts and total
coverage.  Its ``length`` is provably the minimal prefix length after
every slide: coverage is non-decreasing and 0/1-increment in the prefix
length, so "coverage == tau + 1 and the last token is covering" pins the
unique minimum that :func:`~repro.signatures.prefix.prefix_length` computes
from scratch — asserted by property tests over random documents and
schemes.

Most slides never reach the prefix (Section 7.3: adjacent prefixes are
0.87-0.97 similar), and :meth:`IncrementalPrefixLength.slide` decides
that with one comparison pair against the last prefix token ``b``: an
outgoing token ``> b`` lies wholly past the prefix (every occurrence of
a value ``<= b`` sorts at or before ``b``'s), and an incoming token
``>= b`` is inserted after it (equals insert to the right).  Such a
slide leaves ``window[:length]`` as it was, so the minimal prefix length
— a function of that head alone once it reaches coverage ``tau + 1`` —
cannot move; it costs one ``del`` and one ``insort``, both bisecting
only the tail past the prefix.  A window that cannot reach the target
at all is its own prefix, ``b`` is its largest token, and no outgoing
token is ``> b``: every such slide takes the full path.

The full path records what it did to the prefix as *net* membership
changes, ``(rank, group key)`` tokens that ``joined`` and that ``left``
— the outgoing token, the incoming one, and the boundary tokens the
repair takes in or lets go, a token that did both (a duplicate of the
boundary token stepping into its place) cancelling out — which is all
:class:`~repro.signatures.maintain.SignatureStream` needs to update the
signatures.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Sequence

from ..partition.scheme import PartitionScheme


class IncrementalPrefixLength:
    """Maintains a window's prefix length across slides in O(log w).

    Owns the window as the sorted list :attr:`window`; the prefix is
    ``window[:length]``.  Use :meth:`slide` for each window transition;
    when it reports the prefix changed, :attr:`joined` and :attr:`left`
    hold the ``(rank, group key)`` tokens that made the difference
    (after construction: the whole first prefix in ``joined``).
    """

    def __init__(
        self,
        window_ranks: Sequence[int],
        tau: int,
        scheme: PartitionScheme,
    ) -> None:
        self.tau = tau
        self.scheme = scheme
        self._table = scheme.key_table()
        self._m = scheme.m
        self.window: list[int] = sorted(window_ranks)
        self._counts: dict[int, int] = {}  # group key -> tokens in prefix
        self._coverage = 0
        self.length = 0
        self.joined: list[tuple[int, int]] = []
        self.left: list[tuple[int, int]] = []
        self._extend()

    # ------------------------------------------------------------------
    def _join(self, rank: int) -> None:
        """Count ``rank`` into the prefix (the caller placed it there)."""
        key = self._table[rank] if rank >= 0 else self._m
        count = self._counts.get(key, 0) + 1
        if count >= key // self._m:
            self._coverage += 1
        self._counts[key] = count
        self.length += 1
        token = (rank, key)
        if token in self.left:
            self.left.remove(token)
        else:
            self.joined.append(token)

    def _leave(self, rank: int) -> None:
        """Count ``rank`` out of the prefix."""
        key = self._table[rank] if rank >= 0 else self._m
        count = self._counts[key]
        if count >= key // self._m:
            self._coverage -= 1
        if count > 1:
            self._counts[key] = count - 1
        else:
            del self._counts[key]
        self.length -= 1
        token = (rank, key)
        if token in self.joined:
            self.joined.remove(token)
        else:
            self.left.append(token)

    def _extend(self) -> None:
        """Grow the prefix until coverage reaches tau + 1 (or window end)."""
        target = self.tau + 1
        items = self.window
        while self._coverage < target and self.length < len(items):
            self._join(items[self.length])

    def _shrink(self) -> None:
        """Trim the tail: excess coverage and non-covering tail tokens.

        The Corollary 2 rule: a minimal prefix cannot end in tokens
        whose group contributes zero coverage; popping those is free,
        and popping a covering token is allowed only while coverage
        exceeds tau + 1.
        """
        target = self.tau + 1
        items = self.window
        while self.length > 0:
            if self._coverage < target:
                # Target unreachable: the whole window is the prefix
                # (Algorithm 1's fall-through) — never trim below it.
                break
            rank = items[self.length - 1]
            key = self._table[rank] if rank >= 0 else self._m
            covering = self._counts.get(key, 0) >= key // self._m
            if covering and self._coverage == target:
                break
            # Either excess coverage (pop reduces it by 0 or 1) or a
            # non-covering tail token, which a minimal prefix never
            # ends with (Corollary 2); both pop.
            self._leave(rank)

    # ------------------------------------------------------------------
    def slide(self, outgoing: int, incoming: int) -> bool:
        """Apply one window slide; True iff the prefix changed.

        ``outgoing`` must be a token of the window.  False means
        ``window[:length]`` holds the tokens it held before; True
        refreshes :attr:`joined` and :attr:`left`.
        """
        if outgoing == incoming:
            return False
        items = self.window
        length = self.length
        boundary = items[length - 1]
        past = outgoing > boundary  # every occurrence lies past the prefix
        del items[bisect_left(items, outgoing, length if past else 0)]
        if past and incoming >= boundary:
            insort(items, incoming, length)
            return False

        self.joined = []
        self.left = []
        if not past:
            self._leave(outgoing)
        # The incoming token joins the prefix iff it lands strictly
        # before the current last prefix token (equals insert to the
        # right, matching the paper's strict "t2 < x[l']").
        insert_at = bisect_right(items, incoming)
        items.insert(insert_at, incoming)
        if insert_at < self.length:
            self._join(incoming)
        # Repair: coverage is now tau, tau + 1 or tau + 2 (or anything
        # below if the window cannot reach the target at all).
        self._extend()
        self._shrink()
        return bool(self.joined or self.left)

    # ------------------------------------------------------------------
    @property
    def coverage(self) -> int:
        """Current prefix coverage (tau + 1 unless the window is short)."""
        return self._coverage
