"""The Document value type: a sequence of token ids with an identity.

The paper defines a document as a sequence of tokens from a finite
universe (Section 2.1).  Internally tokens are integer ids interned by a
:class:`~repro.tokenize.Vocabulary` owned by the enclosing
:class:`~repro.corpus.DocumentCollection`.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence


class Document:
    """An immutable tokenized document.

    Parameters
    ----------
    doc_id:
        Position of the document in its collection; used as the
        ``doc_id`` component of every match result.
    tokens:
        Token ids, in original document order.
    name:
        Optional human-readable identifier (file name, headline, ...).
    source_tokens:
        Optional original token strings.  Query encodings carry them so
        out-of-vocabulary positions (sentinel id, see
        :data:`~repro.tokenize.vocabulary.OOV_TOKEN_ID`) can still be displayed
        faithfully; identity (equality/hash) ignores them.
    """

    __slots__ = ("doc_id", "tokens", "name", "_source")

    def __init__(
        self,
        doc_id: int,
        tokens: Sequence[int],
        name: str | None = None,
        source_tokens: Sequence[str] | None = None,
    ) -> None:
        self.doc_id = doc_id
        self.tokens: tuple[int, ...] = tuple(tokens)
        self.name = name if name is not None else f"doc{doc_id}"
        self._source = tuple(source_tokens) if source_tokens is not None else None

    @property
    def source_tokens(self) -> tuple[str, ...] | None:
        """Original token strings when encoded from text, else None."""
        return self._source

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[int]:
        return iter(self.tokens)

    def __getitem__(self, index: int | slice) -> int | tuple[int, ...]:
        return self.tokens[index]

    def num_windows(self, w: int) -> int:
        """Number of sliding windows of size ``w`` (0 if too short)."""
        return max(0, len(self.tokens) - w + 1)

    def window(self, start: int, w: int) -> tuple[int, ...]:
        """The tokens of window ``W(d, start)`` (0-based start)."""
        if start < 0 or start + w > len(self.tokens):
            raise IndexError(
                f"window [{start}, {start + w}) out of range for "
                f"document of length {len(self.tokens)}"
            )
        return self.tokens[start : start + w]

    def __repr__(self) -> str:
        return f"Document(id={self.doc_id}, name={self.name!r}, len={len(self)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Document):
            return NotImplemented
        return self.doc_id == other.doc_id and self.tokens == other.tokens

    def __hash__(self) -> int:
        return hash((self.doc_id, self.tokens))
