"""Window frequencies and the global token order O.

The prefix-filtering framework requires one total order over the token
universe, shared by indexing and query processing.  Following
Section 2.2, tokens are ordered by increasing window frequency (number
of data windows containing the token), breaking ties by token string.

Tokens with no data window at build time (window frequency zero) sort
first — they are the rarest possible.  Query-only tokens all take one
sentinel rank below every other: no indexed document holds them, so
they can never match.  This matches the paper's Example 1/2, where the
query-only tokens E and F sort first.  Tokens that later documents add
are admitted lazily, before every build-time token and among themselves
by arrival.  Extending the order this way never perturbs the relative
order of data tokens, so signatures indexed before the extension remain
valid (see the proof of Theorem 1, which only needs O to be a fixed
total order consistent between both sides).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain

import numpy as np

from ..corpus import Document, DocumentCollection
from ..errors import ConfigurationError, CorpusError

#: Rank of every id no indexed document holds: the query-side OOV
#: sentinel (negative token ids) and ids past the ranked range.  Far
#: below any lazily admitted rank (those count down from -1 one at a
#: time), so the sentinel can never collide with a token that actually
#: occurs in indexed data.
OOV_RANK = -(1 << 60)


#: Most tokens one block of :func:`window_frequencies` holds.  Blocks
#: are whole documents (a longer document is a block of its own), so the
#: order's working set is a few dozen bytes per block token, whatever
#: the corpus's size.
_BLOCK_TOKENS = 1 << 15


def window_frequencies(data: DocumentCollection, w: int) -> np.ndarray:
    """Number of data windows of size ``w`` containing each token.

    Returns an ``int64`` array indexed by token id (length = vocabulary
    size).  A window "contains" a token if at least one of its ``w``
    positions holds it; multiplicities within one window do not add.

    For each occurrence at position ``p`` the containing window starts
    form the interval ``[max(0, p - w + 1), min(p, n - w)]``; per token
    and document we count the union of those intervals.  A union never
    leaves its document, so documents of at least ``w`` tokens are
    counted in blocks of whole documents of about :data:`_BLOCK_TOKENS`
    tokens, each in a few array passes over int16 or int32 columns
    (:func:`_count_block`); documents shorter than ``w`` have no window.
    """
    if w < 1:
        raise ConfigurationError(f"window size must be >= 1, got {w}")
    freq = np.zeros(len(data.vocabulary), dtype=np.int64)
    kept = [document.tokens for document in data if len(document) >= w]
    lengths = np.fromiter(map(len, kept), dtype=np.int64, count=len(kept))
    ends = np.cumsum(lengths)
    token_dtype = (
        np.int16 if len(freq) <= 1 << 15 else np.int32 if len(freq) <= 1 << 31 else np.int64
    )
    first = 0
    while first < len(kept):
        stop = max(
            first + 1,
            int(np.searchsorted(ends, ends[first] - lengths[first] + _BLOCK_TOKENS, "right")),
        )
        block = lengths[first:stop]
        tokens = np.fromiter(
            chain.from_iterable(kept[first:stop]), dtype=token_dtype, count=int(block.sum())
        )
        _count_block(tokens, block, w, freq)
        first = stop
    return freq


def _count_block(tokens: np.ndarray, lengths: np.ndarray, w: int, freq: np.ndarray) -> None:
    """Add the window frequencies of one block of documents to ``freq``.

    Positions are block-wide: an occurrence at ``p`` of a document whose
    windows start at ``first .. last`` lies in the windows starting at
    ``[max(p - w + 1, first), min(p, last)]``.  A stable sort by token
    (numpy's radix sort on int16) lines each token's occurrences up in
    document, then position order, so their ranges have non-decreasing
    ends and what is already counted for the token ends at the previous
    occurrence's ``hi``.  When that occurrence is in an earlier document,
    its ranges all end before this document's first window, so no
    document key is needed.
    """
    ends = np.cumsum(lengths)
    position_dtype = np.int32 if ends[-1] <= np.iinfo(np.int32).max else np.int64
    position = np.arange(ends[-1], dtype=position_dtype)
    lo = np.maximum(
        position - (w - 1), np.repeat((ends - lengths).astype(position_dtype), lengths)
    )
    hi = np.minimum(position, np.repeat((ends - w).astype(position_dtype), lengths))
    del position
    order = np.argsort(tokens, kind="stable")
    tokens, lo, hi = tokens[order], lo[order], hi[order]
    del order
    same = tokens[1:] == tokens[:-1]
    counted_to = np.full_like(hi, -1)
    counted_to[1:][same] = hi[:-1][same]
    new_windows = hi - np.maximum(lo, counted_to + 1) + 1
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    freq[tokens[starts]] += np.add.reduceat(new_windows, starts, dtype=np.int64)


def _inverse(permutation: np.ndarray) -> np.ndarray:
    """The inverse of a permutation of ``range(len(permutation))``, at the
    permutation's width (both hold the same values): one scatter."""
    inverse = np.empty_like(permutation)
    inverse[permutation] = np.arange(len(permutation), dtype=permutation.dtype)
    return _read_only(inverse)


def _read_only(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


class GlobalOrder:
    """The total order O: token id -> dense rank.

    Ranks are non-negative for tokens known when the order was built
    (rank 0 = rarest data token) and negative, decreasing, for tokens
    that later documents add, which keeps them first in the order
    without renumbering anything; a query's unknown ids take
    :data:`OOV_RANK`.

    The window frequencies are a build-time value: they choose the order
    and the default scheme's class borders
    (:func:`~repro.core.pkwise.order_and_scheme`), and neither keeps them.
    The order's per-token tables are integer columns, each at the
    narrowest width that holds it
    (:func:`~repro.index.compact._packed_column`): ``_token_of_rank``
    over the build-time ranks, read-only, and ``_admitted``, the ids of
    the tokens admitted since, in arrival order (the ``i``-th holds rank
    ``-1 - i``).  A file stores those two (:meth:`to_arrays`) and the
    loader derives ``_rank_of_token``, the table every id is ranked
    through by one gather (:meth:`rank_ids`): the inverse of
    ``_token_of_rank``, extended over the admitted ids.  So a built order and its reloaded
    copy hold the same state.  The order holds no vocabulary: it maps
    token ids, whatever strings they stand for.
    """

    def __init__(
        self, data: DocumentCollection, w: int, frequencies: np.ndarray | None = None
    ) -> None:
        """The order over ``data`` by window frequency at ``w``;
        ``frequencies`` is :func:`window_frequencies` of the two when the
        caller counted them already."""
        # Imported here: repro.index imports this package (via partition).
        from ..index.compact import _packed_column

        freq = window_frequencies(data, w) if frequencies is None else frequencies
        self.w = w
        # By name, then stably by frequency: the order by (frequency, name).
        by_name = np.array(
            sorted(range(len(freq)), key=data.vocabulary.token_of), dtype=np.int64
        )
        order = by_name[np.argsort(freq[by_name], kind="stable")]
        self._token_of_rank = _read_only(_packed_column(order))
        self._built_size = len(freq)
        self._derive_rank_table()

    def _derive_rank_table(self, admitted: np.ndarray | tuple = ()) -> None:
        """Set up the rank table over the build-time ranks, then admit
        ``admitted`` (a stored arrival-order column) in its order."""
        table = _inverse(self._token_of_rank)
        # One slot even over an empty build: an unranked id is gathered as id 0.
        self._rank_of_token = table if len(table) else np.zeros(1, dtype=table.dtype)
        self._admitted = np.empty(0, dtype=np.int64)
        self._num_admitted = 0
        if len(admitted):
            self._admit(admitted, int(admitted.max()))

    # ------------------------------------------------------------------
    @property
    def universe_size(self) -> int:
        """Number of tokens known at build time (rank space size)."""
        return self._built_size

    @property
    def num_admitted(self) -> int:
        """Number of tokens admitted since the build (ranks ``-1`` down)."""
        return self._num_admitted

    def rank_ids(self, ids: np.ndarray, *, admit: bool = False) -> np.ndarray:
        """Rank of every token id of the integer column ``ids``, in order.

        The ranked ids are ``0 .. universe_size + num_admitted - 1``; one
        min/max tells whether every id of ``ids`` is among them, and then
        one gather from the rank table ranks the column.  Any other id —
        negative (the query-side OOV sentinel) or past the ranked range —
        takes the fixed :data:`OOV_RANK`: no indexed document holds it,
        so a query's results stay exact.  Such ids are gathered as id 0
        and overwritten, never read through numpy's negative indexing or
        past the table.  The result has the table's width, or int64 with
        the sentinel.

        ``admit=True`` is the write path (a build, an add, a WAL replay):
        ids past the ranked range are admitted first, in order of first
        occurrence (:meth:`_admit`), so a column ranks as its tokens
        would one at a time.  A query never admits.
        """
        if not len(ids):
            return self._rank_of_token[:0]
        lo, hi = int(ids.min()), int(ids.max())
        end = self._built_size + self._num_admitted
        if admit and hi >= end:
            self._admit(ids, hi)
            end = hi + 1
        if lo >= 0 and hi < end:
            return self._rank_of_token[ids]
        known = (ids >= 0) & (ids < end)
        ranks = self._rank_of_token[np.where(known, ids, 0)].astype(np.int64)
        ranks[~known] = OOV_RANK
        return ranks

    def _admit(self, ids: np.ndarray, hi: int) -> None:
        """Give every id of ``ids`` past the ranked range the next lazy
        rank, in order of first occurrence.

        Written ids come from a vocabulary, which interns dense ids in
        order, so the new ones are exactly the next ids up to ``hi`` (in
        any order of arrival); a column that skips one raises
        :class:`~repro.errors.CorpusError`, before anything is allocated.
        The table grows to cover ``hi`` and widens when the new ranks
        need it.
        """
        end = self._built_size + self._num_admitted
        late = ids[ids >= end]
        # Distinct, in order of first occurrence (a dict keeps insertion order).
        distinct = dict.fromkeys(late.tolist())
        arrival = np.fromiter(distinct, np.int64, len(distinct))
        if len(arrival) != hi + 1 - end:
            # Some id of end .. end + len(arrival) is missing from arrival.
            skipped = np.setdiff1d(np.arange(end, end + len(arrival) + 1), arrival)[0]
            raise CorpusError(
                f"token id {hi} is past the ids the order can admit: id "
                f"{skipped} was never ranked; ranked data must carry the "
                f"ids its vocabulary interned, in order"
            )
        table = self._rank_of_token
        if hi >= len(table):
            grown = np.zeros(max(hi + 1, 2 * len(table)), dtype=table.dtype)
            grown[: len(table)] = table
            table = grown
        start = self._num_admitted
        count = start + len(arrival)
        # The lowest new rank, -count, must fit the table's signed width.
        if count > 1 << (8 * table.itemsize - 1):
            table = table.astype(np.promote_types(table.dtype, np.min_scalar_type(-count)))
        table[arrival] = np.arange(-1 - start, -1 - count, -1)
        if count > len(self._admitted):
            grown = np.empty(max(count, 2 * len(self._admitted)), dtype=np.int64)
            grown[:start] = self._admitted[:start]
            self._admitted = grown
        self._admitted[start:count] = arrival
        self._rank_of_token = table
        self._num_admitted = count

    def token_of_rank(self, rank: int) -> int:
        """Token id holding non-negative ``rank``."""
        return int(self._token_of_rank[rank])

    def token_table(self) -> np.ndarray:
        """Token id of every rank, laid out so ``table[ranks]`` decodes a
        rank column in one take: build-time ranks from the front, the
        lazily admitted (negative) ones from the back, where numpy's
        negative indexing finds them.  The order is a bijection, so this
        is how a snapshot reads its documents back without storing them.
        The table holds the ids ``0 .. universe_size + num_admitted - 1``,
        at the narrowest width that holds the largest of them.
        """
        # Imported here: repro.index imports this package (via partition).
        from ..index.compact import _packed_column

        end = self._built_size + self._num_admitted
        admitted = self._admitted[: self._num_admitted]
        width = _packed_column([end - 1]).dtype
        return np.concatenate((self._token_of_rank, admitted[::-1]), dtype=width)

    # ------------------------------------------------------------------
    def to_arrays(self, admitted: int | None = None) -> tuple[dict, dict[str, np.ndarray]]:
        """``(meta, columns)`` a file stores of this order as it stood
        when it had admitted ``admitted`` tokens (default: all): ``w``,
        and the build-time ``token_of_rank`` column and the first
        ``admitted`` entries of the ``admitted`` column, at its narrowest
        width.  Admission only appends, so a count taken under a writer's
        lock is a point-in-time copy that is cut here, when the file is
        written; ``_rank_of_token`` is derived on load."""
        # Imported here: repro.index imports this package (via partition).
        from ..index.compact import _packed_column

        cut = self._num_admitted if admitted is None else admitted
        columns = {
            "token_of_rank": self._token_of_rank,
            "admitted": _packed_column(self._admitted[:cut]),
        }
        return {"w": self.w}, columns

    @classmethod
    def from_arrays(cls, meta: dict, columns: dict[str, np.ndarray]) -> "GlobalOrder":
        """Inverse of :meth:`to_arrays` (the columns may be mapped views),
        so a built order and its reloaded copy hold the same state."""
        self = cls.__new__(cls)
        self.w = meta["w"]
        self._token_of_rank = _read_only(columns["token_of_rank"])
        self._built_size = len(self._token_of_rank)
        self._derive_rank_table(columns["admitted"])
        return self

    def rank_sequence(self, tokens: Sequence[int], *, admit: bool = False) -> list[int]:
        """Map a token-id sequence to its rank sequence, as Python ints
        (:meth:`rank_ids` over it: a query's admits nothing, a data
        document's takes ``admit=True``)."""
        ids = np.fromiter(tokens, np.int64, len(tokens))
        return self.rank_ids(ids, admit=admit).tolist()

    def rank_document(self, document: Document, *, admit: bool = False) -> list[int]:
        """Rank sequence of a document (original token order preserved)."""
        return self.rank_sequence(document.tokens, admit=admit)

    def rank_documents(self, documents: Iterable[Document]):
        """The rank column of ``documents``, as a build stores it: a
        :class:`~repro.index.compact.PackedRankDocs`.

        This is the write path of a build: their tokens are packed into
        one narrow column and ranked by :meth:`rank_ids`, admitting new
        ids in order of first occurrence across the column — the ranks
        one document at a time would assign.
        """
        # Imported here: repro.index imports this package (via partition).
        from ..index.compact import PackedRankDocs, _packed_column

        columns = PackedRankDocs.from_lists(
            [document.tokens for document in documents]
        ).to_arrays()
        ranks = self.rank_ids(columns["values"], admit=True)
        return PackedRankDocs.from_arrays({**columns, "values": _packed_column(ranks)})

    def __repr__(self) -> str:
        return (
            f"GlobalOrder(universe={self._built_size}, w={self.w}, "
            f"admitted={self._num_admitted})"
        )
