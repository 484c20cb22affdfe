"""Vocabulary: bidirectional interning of token strings to dense ids.

Every document in a collection is stored as an array of integer token
ids.  Ids are dense (0..len-1) so downstream structures (window
frequency tables, the global order, partition schemes) can be plain
arrays indexed by token id.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from ..errors import CorpusError, UnknownTokenError

#: Sentinel id for out-of-vocabulary tokens in *query* encodings.
#: Negative so it can never collide with an interned (dense, >= 0) id;
#: an OOV token can never match any data token, so collapsing all OOV
#: tokens onto one id is exact for similarity search.
OOV_TOKEN_ID = -1

#: Display string used when decoding the OOV sentinel.
OOV_TOKEN = "<oov>"


def string_columns(strings: Sequence[str]) -> dict[str, np.ndarray]:
    """``strings`` as a file stores them: ``utf8``, their UTF-8 bytes
    joined as one ``uint8`` column, and ``lengths``, each string's length
    in code points at the narrowest integer width
    (:func:`~repro.index.compact._packed_column`).  Any character may
    occur in any string (a lone surrogate is kept as it is)."""
    # Imported here: repro.index imports this package (via corpus).
    from ..index.compact import _packed_column

    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    joined = "".join(strings).encode("utf-8", "surrogatepass")
    return {"utf8": np.frombuffer(joined, dtype=np.uint8), "lengths": _packed_column(lengths)}


def split_strings(columns: dict[str, np.ndarray]) -> list[str]:
    """The list :func:`string_columns` stored: the bytes decoded once,
    then one slice per length.  Bytes that are not UTF-8, a negative
    length or lengths that do not sum to the decoded string raise
    :class:`~repro.errors.CorpusError`."""
    try:
        joined = columns["utf8"].tobytes().decode("utf-8", "surrogatepass")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"stored strings are not UTF-8: {exc}") from None
    lengths = columns["lengths"]
    if len(lengths) and lengths.min() < 0:
        raise CorpusError("a stored string length is negative")
    ends = np.cumsum(lengths, dtype=np.int64).tolist()
    if (ends[-1] if ends else 0) != len(joined):
        raise CorpusError(
            f"stored string lengths sum to {ends[-1] if ends else 0} for "
            f"{len(joined)} characters"
        )
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

    def to_arrays(self, length: int | None = None) -> dict[str, np.ndarray]:
        """The columns a file stores of this vocabulary
        (:func:`string_columns`), as it stood when it held ``length``
        tokens (default: all).  Interning only appends, so a length taken
        under the ingest store's writer lock is a point-in-time copy that
        is cut here, when a manifest is written off-lock; ``_id_of`` is
        the list's inverse and is not stored."""
        return string_columns(self._token_of[:length])

    @classmethod
    def from_arrays(cls, columns: dict[str, np.ndarray]) -> "Vocabulary":
        """Inverse of :meth:`to_arrays`; a token stored twice raises
        :class:`~repro.errors.CorpusError` (its ids would not be dense)."""
        self = cls.__new__(cls)
        self._token_of = split_strings(columns)
        self._id_of = _Interning(self._token_of)
        if len(self._id_of) != len(self._token_of):
            raise CorpusError("a token is stored twice")
        return self

    def __len__(self) -> int:
        return len(self._token_of)

    def __contains__(self, token: str) -> bool:
        return token in self._id_of

    def __iter__(self) -> Iterator[str]:
        return iter(self._token_of)

    def __repr__(self) -> str:
        return f"Vocabulary(size={len(self)})"
