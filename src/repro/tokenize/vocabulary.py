"""Vocabulary: bidirectional interning of token strings to dense ids.

Every document in a collection is stored as an array of integer token
ids.  Ids are dense (0..len-1) so downstream structures (window
frequency tables, the global order, partition schemes) can be plain
arrays indexed by token id.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from ..errors import UnknownTokenError

#: Sentinel id for out-of-vocabulary tokens in *query* encodings.
#: Negative so it can never collide with an interned (dense, >= 0) id;
#: an OOV token can never match any data token, so collapsing all OOV
#: tokens onto one id is exact for similarity search.
OOV_TOKEN_ID = -1

#: Display string used when decoding the OOV sentinel.
OOV_TOKEN = "<oov>"


def joined_strings(strings: Sequence[str]) -> tuple[str, np.ndarray]:
    """``strings`` as a file stores them: one joined string and each
    string's length in code points, at the narrowest integer width
    (:func:`~repro.index.compact._packed_column`).  One ``str`` pickles
    its UTF-8 bytes once, where a list of them costs three more bytes a
    string; any character may occur in any string."""
    # Imported here: repro.index imports this package (via corpus).
    from ..index.compact import _packed_column

    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    return "".join(strings), _packed_column(lengths)


def split_strings(stored: tuple[str, np.ndarray]) -> list[str]:
    """The list :func:`joined_strings` stored: one slice per length."""
    joined, lengths = stored
    ends = np.cumsum(lengths).tolist()
    return [joined[start:end] for start, end in zip([0, *ends[:-1]], ends)]


class _Interning(dict):
    """``token -> id`` that interns a missing token when it is looked up
    by ``[]`` (``__missing__``): it takes the next id and joins
    ``tokens``, the id -> token list.  ``get`` and ``in`` intern nothing."""

    __slots__ = ("tokens",)

    def __init__(self, tokens: list[str]) -> None:
        super().__init__(zip(tokens, range(len(tokens))))
        self.tokens = tokens

    def __missing__(self, token: str) -> int:
        token_id = self[token] = len(self.tokens)
        self.tokens.append(token)
        return token_id


class Vocabulary:
    """Mutable string<->id mapping with dense ids.

    ``encode`` interns a sequence of tokens and returns their ids.  Lookup of unknown tokens via ``id_of`` raises
    :class:`~repro.errors.UnknownTokenError` (a ``KeyError`` subclass
    naming the token); use ``encode_query`` for a non-mutating
    encoding that maps unknown tokens to :data:`OOV_TOKEN_ID`.

    The mapping is append-only: ids are stable for the lifetime of the
    vocabulary, which the rest of the library relies on (token ids are
    baked into indexes and partition schemes).
    """

    __slots__ = ("_id_of", "_token_of")

    def __init__(self, tokens: Iterable[str] = ()) -> None:
        self._token_of: list[str] = []
        self._id_of = _Interning(self._token_of)
        self.encode(tokens)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        """Intern each token of ``tokens`` and return their ids: one
        pass of dictionary lookups, a missing token interned where it is
        met (:class:`_Interning`), so the ids are those of interning the
        tokens one at a time."""
        return list(map(self._id_of.__getitem__, tokens))

    def encode_query(self, tokens: Iterable[str]) -> list[int]:
        """Encode without interning; unknown tokens map to
        :data:`OOV_TOKEN_ID`.

        This is the query-side encoding: it never mutates the
        vocabulary (safe under concurrent readers and consistent across
        spawned worker processes), and it is exact — an OOV query token
        cannot match any data token, so the sentinel preserves results.
        """
        get = self._id_of.get
        return [get(token, OOV_TOKEN_ID) for token in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        """Map token ids back to their strings (OOV sentinel included)."""
        token_of = self._token_of
        return [
            token_of[token_id] if token_id >= 0 else OOV_TOKEN for token_id in ids
        ]

    def id_of(self, token: str) -> int:
        """Return the id of ``token``; raises
        :class:`~repro.errors.UnknownTokenError` if unknown."""
        token_id = self._id_of.get(token)
        if token_id is None:
            raise UnknownTokenError(token)
        return token_id

    def token_of(self, token_id: int) -> str:
        """Return the string of ``token_id`` (OOV sentinel included)."""
        if token_id < 0:
            return OOV_TOKEN
        return self._token_of[token_id]

    def state_at(self, length: int) -> tuple[str, np.ndarray]:
        """What a pickle stores of this vocabulary as it stood when it
        held ``length`` tokens: their :func:`joined_strings`.  Interning
        only appends, so a length taken under the ingest store's writer
        lock is a point-in-time copy that is cut here, when a manifest is
        written off-lock."""
        return joined_strings(self._token_of[:length])

    def __getstate__(self) -> tuple[str, np.ndarray]:
        """A pickle stores the tokens as one string and a length column
        only: the token list is split from them on load, and ``_id_of``
        is its inverse."""
        return joined_strings(self._token_of)

    def __setstate__(self, state: tuple[str, np.ndarray]) -> None:
        self._token_of = split_strings(state)
        self._id_of = _Interning(self._token_of)

    def __len__(self) -> int:
        return len(self._token_of)

    def __contains__(self, token: str) -> bool:
        return token in self._id_of

    def __iter__(self) -> Iterator[str]:
        return iter(self._token_of)

    def __repr__(self) -> str:
        return f"Vocabulary(size={len(self)})"
