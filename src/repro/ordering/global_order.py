"""Window frequencies and the global token order O.

The prefix-filtering framework requires one total order over the token
universe, shared by indexing and query processing.  Following
Section 2.2, tokens are ordered by increasing window frequency (number
of data windows containing the token), breaking ties by token string.

Tokens that first appear in *query* documents (window frequency zero by
definition) are admitted lazily: they are ordered before every data
token — they are the rarest possible — and among themselves by arrival.
This matches the paper's Example 1/2, where the query-only tokens E and
F sort first.  Extending the order this way never perturbs the relative
order of data tokens, so signatures indexed before the extension remain
valid (see the proof of Theorem 1, which only needs O to be a fixed
total order consistent between both sides).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain

import numpy as np

from ..corpus import Document, DocumentCollection
from ..errors import ConfigurationError

#: Rank assigned to the query-side OOV sentinel (negative token ids).
#: Far below any lazily admitted rank (those count down from -1 one at a
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
    that appear later (query-only tokens), which keeps them first in the
    order without renumbering anything.

    The order also carries the window frequency of each *rank*, which
    the cost model and the partitioners consume.  Its three per-token
    tables are read-only integer columns, each at the narrowest width
    that holds it (:func:`~repro.index.compact._packed_column`); a
    pickle stores ``_token_of_rank`` and ``_freq_of_rank``, and the
    loader derives ``_rank_of_token``, their inverse, by one scatter.
    The order holds no vocabulary: it maps token ids, whatever strings
    they stand for.
    """

    def __init__(self, data: DocumentCollection, w: int) -> None:
        # Imported here: repro.index imports this package (via partition).
        from ..index.compact import _packed_column

        freq = window_frequencies(data, w)
        self.w = w
        # By name, then stably by frequency: the order by (frequency, name).
        by_name = np.array(
            sorted(range(len(freq)), key=data.vocabulary.token_of), dtype=np.int64
        )
        order = by_name[np.argsort(freq[by_name], kind="stable")]
        self._token_of_rank = _read_only(_packed_column(order))
        self._freq_of_rank = _read_only(_packed_column(freq[order]))
        self._rank_of_token = _inverse(self._token_of_rank)
        self._built_size = len(freq)
        self._extra_ranks: dict[int, int] = {}
        self.num_data_windows = data.total_windows(w)

    # ------------------------------------------------------------------
    @property
    def universe_size(self) -> int:
        """Number of tokens known at build time (rank space size)."""
        return self._built_size

    def rank(self, token_id: int) -> int:
        """Rank of ``token_id``; lazily admits tokens unseen at build.

        Negative token ids (the query-side OOV sentinel) map to the
        fixed :data:`OOV_RANK` without mutating the order — they sort
        before everything, like any zero-frequency token, and can never
        equal a rank that occurs in indexed data.
        """
        if token_id < 0:
            return OOV_RANK
        if token_id < self._built_size:
            return int(self._rank_of_token[token_id])
        rank = self._extra_ranks.get(token_id)
        if rank is None:
            rank = -1 - len(self._extra_ranks)
            self._extra_ranks[token_id] = rank
        return rank

    def token_of_rank(self, rank: int) -> int:
        """Token id holding non-negative ``rank``."""
        return int(self._token_of_rank[rank])

    def token_table(self) -> np.ndarray:
        """Token id of every rank, laid out so ``table[ranks]`` decodes a
        rank column in one take: build-time ranks from the front, the
        lazily admitted (negative) ones from the back, where numpy's
        negative indexing finds them.  The order is a bijection, so this
        is how a snapshot reads its documents back without storing them.
        """
        admitted = list(self._extra_ranks)  # arrival order: ranks -1, -2, ...
        return np.concatenate(
            (self._token_of_rank, np.array(admitted[::-1], dtype=np.int64))
        )

    def frequency_of_rank(self, rank: int) -> int:
        """Window frequency of the token at ``rank`` (0 for negatives)."""
        if rank < 0:
            return 0
        return int(self._freq_of_rank[rank])

    def relative_frequency_of_rank(self, rank: int) -> float:
        """Window frequency normalized by the number of data windows."""
        if self.num_data_windows == 0:
            return 0.0
        return self.frequency_of_rank(rank) / self.num_data_windows

    def relative_frequencies(self) -> np.ndarray:
        """:meth:`relative_frequency_of_rank` of every build-time rank, as
        ``float64``: ascending, since the order sorts by frequency."""
        if self.num_data_windows == 0:
            return np.zeros(self._built_size)
        return self._freq_of_rank / self.num_data_windows

    # ------------------------------------------------------------------
    def snapshot(self) -> "GlobalOrder":
        """A point-in-time copy safe to pickle while this order keeps
        admitting tokens.

        The build-time tables are read-only and are shared; only the
        lazy-admission map is copied.
        """
        clone = GlobalOrder.__new__(GlobalOrder)
        clone.__dict__.update(self.__dict__)
        clone._extra_ranks = dict(self._extra_ranks)
        return clone

    def __getstate__(self) -> dict:
        """A pickle stores ``_token_of_rank`` and ``_freq_of_rank``, not
        ``_rank_of_token``: that is their inverse, derived on load."""
        state = dict(self.__dict__)
        del state["_rank_of_token"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        _read_only(self._freq_of_rank)
        self._rank_of_token = _inverse(_read_only(self._token_of_rank))

    def rank_sequence(self, tokens: Sequence[int]) -> list[int]:
        """Map a token-id sequence to its rank sequence.

        Ids known at build time are ranked by one gather, negative ids
        (the OOV sentinel) take :data:`OOV_RANK`, and ids past the
        build-time universe go through :meth:`rank` in order, so lazy
        admission sees them as it would one by one.
        """
        ids = np.fromiter(tokens, np.int64, len(tokens))
        known = (ids >= 0) & (ids < self._built_size)
        if known.all():
            return self._rank_of_token[ids].tolist()
        ranks = np.full(len(ids), OOV_RANK, dtype=np.int64)
        ranks[known] = self._rank_of_token[ids[known]]
        late = ids >= self._built_size
        ranks[late] = [self.rank(token) for token in ids[late].tolist()]
        return ranks.tolist()

    def rank_document(self, document: Document) -> list[int]:
        """Rank sequence of a document (original token order preserved)."""
        return self.rank_sequence(document.tokens)

    def rank_documents(self, documents: Iterable[Document]):
        """The rank column of ``documents``, as a build stores it: a
        :class:`~repro.index.compact.PackedRankDocs`.

        Their tokens are packed into one narrow column and ranked by one
        gather.  Tokens outside the build-time universe go through
        :meth:`rank` in order of first occurrence, so lazy admission
        assigns the ranks a :meth:`rank_document` per document would.
        """
        # Imported here: repro.index imports this package (via partition).
        from ..index.compact import PackedRankDocs, _packed_column

        columns = PackedRankDocs.from_lists(
            [document.tokens for document in documents]
        ).to_arrays()
        tokens = columns["values"]
        table = self._rank_of_token
        known = (tokens >= 0) & (tokens < self._built_size)
        if known.all():
            ranks = table[tokens]
        else:
            unknown = tokens[~known]
            values, first = np.unique(unknown, return_index=True)
            arrival = np.argsort(first)
            admitted = np.empty(len(values), dtype=np.int64)
            admitted[arrival] = [self.rank(token) for token in values[arrival].tolist()]
            ranks = np.empty(len(tokens), dtype=np.int64)
            ranks[known] = table[tokens[known]]
            ranks[~known] = admitted[np.searchsorted(values, unknown)]
        return PackedRankDocs(columns["offsets"], _packed_column(ranks))

    def __repr__(self) -> str:
        return (
            f"GlobalOrder(universe={self._built_size}, w={self.w}, "
            f"windows={self.num_data_windows}, extras={len(self._extra_ranks)})"
        )
