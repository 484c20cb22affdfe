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

from collections.abc import Sequence
from itertools import chain

import numpy as np

from ..corpus import Document, DocumentCollection
from ..errors import ConfigurationError

#: Rank assigned to the query-side OOV sentinel (negative token ids).
#: Far below any lazily admitted rank (those count down from -1 one at a
#: time), so the sentinel can never collide with a token that actually
#: occurs in indexed data.
OOV_RANK = -(1 << 60)


def window_frequencies(data: DocumentCollection, w: int) -> list[int]:
    """Number of data windows of size ``w`` containing each token.

    Returns a list indexed by token id (length = vocabulary size).  A
    window "contains" a token if at least one of its ``w`` positions
    holds it; multiplicities within one window do not add.

    For each occurrence at position ``p`` the containing window starts
    form the interval ``[max(0, p - w + 1), min(p, n - w)]``; per token
    and document we count the union of those intervals, as array
    operations over all occurrences at once (one stable sort).
    """
    vocabulary_size = len(data.vocabulary)
    if w < 1:
        raise ConfigurationError(f"window size must be >= 1, got {w}")
    kept = [document.tokens for document in data if len(document) >= w]
    if not kept:
        return [0] * vocabulary_size
    lengths = np.fromiter(map(len, kept), dtype=np.int64, count=len(kept))
    total = int(lengths.sum())
    tokens = np.fromiter(chain.from_iterable(kept), dtype=np.int64, count=total)
    position = np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    lo = np.maximum(position - (w - 1), 0)
    hi = np.minimum(position, np.repeat(lengths - w, lengths))
    # Bring each token's occurrences within one document together, in
    # position order.  Their window ranges then have non-decreasing
    # ends, so what is already counted for the token ends at the
    # previous occurrence's `hi` (the loop's high-water mark).
    key = np.repeat(np.arange(len(kept)) * vocabulary_size, lengths) + tokens
    order = np.argsort(key, kind="stable")
    key, lo, hi = key[order], lo[order], hi[order]
    counted_to = np.empty_like(hi)
    counted_to[0] = -1
    counted_to[1:] = np.where(key[1:] == key[:-1], hi[:-1], -1)
    new_windows = hi - np.maximum(lo, counted_to + 1) + 1
    # Float weights are exact here: window counts stay far below 2**53.
    freq = np.bincount(tokens[order], weights=new_windows, minlength=vocabulary_size)
    return freq.astype(np.int64).tolist()


class GlobalOrder:
    """The total order O: token id -> dense rank.

    Ranks are non-negative for tokens known when the order was built
    (rank 0 = rarest data token) and negative, decreasing, for tokens
    that appear later (query-only tokens), which keeps them first in the
    order without renumbering anything.

    The order also carries the window frequency of each *rank*, which
    the cost model and the partitioners consume.
    """

    def __init__(self, data: DocumentCollection, w: int) -> None:
        freq = window_frequencies(data, w)
        self._vocabulary = data.vocabulary
        self.w = w
        token_of = data.vocabulary.token_of
        order = sorted(range(len(freq)), key=lambda t: (freq[t], token_of(t)))
        self._rank_of_token: list[int] = [0] * len(freq)
        self._token_of_rank: list[int] = order
        for rank, token in enumerate(order):
            self._rank_of_token[token] = rank
        self._freq_of_rank: list[int] = [freq[token] for token in order]
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
            return self._rank_of_token[token_id]
        rank = self._extra_ranks.get(token_id)
        if rank is None:
            rank = -1 - len(self._extra_ranks)
            self._extra_ranks[token_id] = rank
        return rank

    def token_of_rank(self, rank: int) -> int:
        """Token id holding non-negative ``rank``."""
        return self._token_of_rank[rank]

    def token_table(self) -> np.ndarray:
        """Token id of every rank, laid out so ``table[ranks]`` decodes a
        rank column in one take: build-time ranks from the front, the
        lazily admitted (negative) ones from the back, where numpy's
        negative indexing finds them.  The order is a bijection, so this
        is how a snapshot reads its documents back without storing them.
        """
        admitted = list(self._extra_ranks)  # arrival order: ranks -1, -2, ...
        return np.array(self._token_of_rank + admitted[::-1], dtype=np.int64)

    def frequency_of_rank(self, rank: int) -> int:
        """Window frequency of the token at ``rank`` (0 for negatives)."""
        if rank < 0:
            return 0
        return self._freq_of_rank[rank]

    def relative_frequency_of_rank(self, rank: int) -> float:
        """Window frequency normalized by the number of data windows."""
        if self.num_data_windows == 0:
            return 0.0
        return self.frequency_of_rank(rank) / self.num_data_windows

    # ------------------------------------------------------------------
    def snapshot(self, vocabulary=None) -> "GlobalOrder":
        """A point-in-time copy safe to pickle while this order keeps
        admitting tokens.

        The build-time tables are frozen after construction and are
        shared; only the lazy-admission map is copied.  Pass the
        matching vocabulary snapshot so the copy does not pin (or race
        with) the live, still-interning vocabulary.
        """
        clone = GlobalOrder.__new__(GlobalOrder)
        clone._vocabulary = (
            vocabulary if vocabulary is not None else self._vocabulary
        )
        clone.w = self.w
        clone._rank_of_token = self._rank_of_token
        clone._token_of_rank = self._token_of_rank
        clone._freq_of_rank = self._freq_of_rank
        clone._built_size = self._built_size
        clone._extra_ranks = dict(self._extra_ranks)
        clone.num_data_windows = self.num_data_windows
        return clone

    def detached(self) -> "GlobalOrder":
        """A :meth:`snapshot` that holds no vocabulary: what an index
        file pickles when its collection header stores the one copy.
        The loader puts it back with ``snapshot(vocabulary)``."""
        clone = self.snapshot()
        clone._vocabulary = None
        return clone

    def rank_sequence(self, tokens: Sequence[int]) -> list[int]:
        """Map a token-id sequence to its rank sequence.

        When every id was known at build time the ranks are one gather;
        otherwise each goes through :meth:`rank`, the one place the OOV
        sentinel and lazily admitted tokens are ranked.
        """
        if tokens and min(tokens) >= 0 and max(tokens) < self._built_size:
            return list(map(self._rank_of_token.__getitem__, tokens))
        rank = self.rank
        return [rank(token) for token in tokens]

    def rank_document(self, document: Document) -> list[int]:
        """Rank sequence of a document (original token order preserved)."""
        return self.rank_sequence(document.tokens)

    def __repr__(self) -> str:
        return (
            f"GlobalOrder(universe={self._built_size}, w={self.w}, "
            f"windows={self.num_data_windows}, extras={len(self._extra_ranks)})"
        )
