"""DocumentCollection: a set of documents sharing one vocabulary.

All algorithms in the library take a collection of *data documents* and
one or more *query documents*.  Data and query documents must share the
same :class:`~repro.tokenize.Vocabulary` so token ids are comparable; a
collection owns that vocabulary and offers helpers to encode additional
(query) documents against it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

import numpy as np

from ..errors import CorpusError
from ..tokenize import Tokenizer, Vocabulary, WhitespaceTokenizer
from .document import Document


def _joined_ids(documents: Sequence[Document]) -> np.ndarray:
    return np.fromiter(chain.from_iterable(d.tokens for d in documents), np.int64)


class ColumnDocuments(Sequence):
    """The documents of an opened snapshot, or of a reopened live store's
    sealed prefix, read through its rank columns.

    The global order is a bijection between token ids and ranks, so the
    rank column the verifier reads already holds every document:
    document ``i`` is ``token_of_rank[rank_docs.doc_ranks(i)]``
    (:meth:`~repro.ordering.GlobalOrder.token_table`).  A :class:`Document` is
    made on each access and not kept; lengths and names are answered
    without decoding.  Documents appended after the load are ordinary
    :class:`Document` objects behind the column-backed prefix.
    """

    __slots__ = ("_rank_docs", "_stored", "_token_of_rank", "_names", "_appended")

    def __init__(self, rank_docs, token_of_rank, names: Sequence[str]) -> None:
        if len(names) != len(rank_docs):
            raise CorpusError(
                f"{len(names)} document names for {len(rank_docs)} rank columns"
            )
        self._rank_docs = rank_docs
        self._stored = len(rank_docs)
        self._token_of_rank = token_of_rank
        self._names = names
        self._appended: list[Document] = []

    def __len__(self) -> int:
        return self._stored + len(self._appended)

    def __getitem__(self, doc_id):
        if isinstance(doc_id, slice):
            return [self[i] for i in range(*doc_id.indices(len(self)))]
        index = doc_id + len(self) if doc_id < 0 else doc_id
        if not 0 <= index < len(self):
            raise IndexError(f"doc_id {doc_id} out of range")
        stored = self._stored
        if index >= stored:
            return self._appended[index - stored]
        tokens = self._token_of_rank[self._rank_docs.doc_ranks(index)]
        return Document(index, tokens.tolist(), name=self._names[index])

    def append(self, document: Document) -> None:
        self._appended.append(document)

    def lengths(self) -> list[int]:
        return self._rank_docs.lengths() + [len(d) for d in self._appended]

    def token_ids(self, lo: int, hi: int) -> np.ndarray:
        """Documents ``lo .. hi - 1``'s token ids, joined: the stored ones
        by one gather over their rank runs, no :class:`Document` made."""
        stored = self._stored
        runs = [self._rank_docs.doc_ranks(i) for i in range(lo, min(hi, stored))]
        gathered = self._token_of_rank[np.concatenate(runs)] if runs else np.empty(0, np.int64)
        appended = self._appended[max(lo - stored, 0) : max(hi - stored, 0)]
        return np.concatenate([gathered, _joined_ids(appended)], dtype=np.int64)

    def names(self) -> list[str]:
        return list(self._names) + [d.name for d in self._appended]


class DocumentCollection:
    """An ordered, append-only set of tokenized documents.

    Construct empty and :meth:`add_text`/:meth:`add_tokens`, or use the
    loader helpers in :mod:`repro.corpus.loaders`.  A collection that
    came out of a snapshot (:meth:`over_columns`) has the same surface;
    its documents are a :class:`ColumnDocuments` view.
    """

    def __init__(
        self,
        tokenizer: Tokenizer | None = None,
        vocabulary: Vocabulary | None = None,
    ) -> None:
        self.tokenizer = tokenizer if tokenizer is not None else WhitespaceTokenizer()
        self.vocabulary = vocabulary if vocabulary is not None else Vocabulary()
        self._documents: list[Document] = []

    @classmethod
    def over_columns(
        cls, tokenizer, vocabulary, rank_docs, token_of_rank, names
    ) -> "DocumentCollection":
        """The collection a snapshot reopens as: tokenizer, vocabulary
        and names from its header, tokens through ``rank_docs``."""
        self = cls(tokenizer=tokenizer, vocabulary=vocabulary)
        self._documents = ColumnDocuments(rank_docs, token_of_rank, names)
        return self

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_text(self, text: str, name: str | None = None) -> Document:
        """Tokenize ``text`` with the collection tokenizer and append it."""
        return self.add_tokens(self.tokenizer.tokenize(text), name=name)

    def add_tokens(self, tokens: Sequence[str], name: str | None = None) -> Document:
        """Append a document given as pre-split token strings.  The
        vocabulary interns them, so their ids need no range check."""
        return self._append(self.vocabulary.encode(tokens), name)

    def add_token_ids(
        self, token_ids: Sequence[int], name: str | None = None
    ) -> Document:
        """Append a document given directly as token ids.

        The ids must have been produced by this collection's vocabulary
        (or at least be < len(vocabulary)); otherwise decoding and
        frequency tables would be inconsistent.
        """
        vocab_size = len(self.vocabulary)
        if token_ids and not (min(token_ids) >= 0 and max(token_ids) < vocab_size):
            bad = next(t for t in token_ids if not 0 <= t < vocab_size)
            raise CorpusError(
                f"token id {bad} out of range for vocabulary of size {vocab_size}"
            )
        return self._append(token_ids, name)

    def _append(self, token_ids: Sequence[int], name: str | None) -> Document:
        document = Document(len(self._documents), token_ids, name=name)
        self._documents.append(document)
        return document

    def encode_query(self, text: str, name: str | None = None) -> Document:
        """Tokenize a query document against this collection's vocabulary.

        Query tokens absent from the vocabulary map to the
        :data:`~repro.tokenize.vocabulary.OOV_TOKEN_ID` sentinel instead of
        being interned.  This never mutates the shared vocabulary (safe under
        concurrent queries, and worker processes stay byte-identical to
        the parent), and it is exact: an OOV token cannot occur in any
        data window, so it contributes nothing to window overlap either
        way.  The global order ranks the sentinel before every data
        token — maximally selective, exactly like the paper's Example 1
        query-only tokens E and F.

        The returned document is *not* added to the collection; its
        ``doc_id`` is -1 to make accidental use as a data document loud.
        It carries :attr:`~repro.corpus.Document.source_tokens` so OOV
        positions can still be displayed as the original words.
        """
        tokens = self.tokenizer.tokenize(text)
        token_ids = self.vocabulary.encode_query(tokens)
        return Document(-1, token_ids, name=name or "query", source_tokens=tokens)

    def encode_query_tokens(
        self, tokens: Sequence[str], name: str | None = None
    ) -> Document:
        """Like :meth:`encode_query` but for pre-split token strings."""
        token_ids = self.vocabulary.encode_query(tokens)
        return Document(-1, token_ids, name=name or "query", source_tokens=tokens)

    def decode_window(self, document: Document, start: int, w: int) -> list[str]:
        """Token strings of ``W(document, start)``, exact even for OOV.

        Data documents decode through the vocabulary; query documents
        built by :meth:`encode_query` prefer their stored
        :attr:`~repro.corpus.Document.source_tokens`, so sentinel-mapped
        out-of-vocabulary positions render as the original words rather
        than the ``<oov>`` placeholder.
        """
        source = document.source_tokens
        if source is not None and len(source) == len(document):
            document.window(start, w)  # reuse bounds checking
            return list(source[start : start + w])
        return self.vocabulary.decode(document.window(start, w))

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def documents(self) -> Sequence[Document]:
        """The documents, in insertion (doc_id) order."""
        return self._documents

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents)

    def __getitem__(self, doc_id: int) -> Document:
        return self._documents[doc_id]

    def lengths(self) -> list[int]:
        """Document lengths in doc-id order; a snapshot-backed
        collection reads them off its offsets column, not its tokens."""
        documents = self._documents
        if isinstance(documents, ColumnDocuments):
            return documents.lengths()
        return [len(document) for document in documents]

    def token_ids(self, lo: int, hi: int) -> np.ndarray:
        """The token ids of documents ``lo .. hi - 1``, joined into one
        int64 array; a snapshot-backed collection gathers them from its
        rank columns."""
        documents = self._documents
        if isinstance(documents, ColumnDocuments):
            return documents.token_ids(lo, hi)
        return _joined_ids(documents[lo:hi])

    def names(self) -> list[str]:
        """Document names in doc-id order (no token is read)."""
        documents = self._documents
        if isinstance(documents, ColumnDocuments):
            return documents.names()
        return [document.name for document in documents]

    def total_tokens(self) -> int:
        """Sum of document lengths."""
        return sum(self.lengths())

    def total_windows(self, w: int) -> int:
        """Total number of sliding windows of size ``w`` over all docs."""
        return sum(max(0, length - w + 1) for length in self.lengths())

    def subset(self, doc_ids: Iterable[int]) -> "DocumentCollection":
        """A new collection containing the given documents (re-numbered).

        The vocabulary and tokenizer are shared (not copied) so token
        ids remain comparable across the parent and the subset — this is
        what the scalability experiment (Figure 9) relies on when
        sampling 20%..100% of the data documents.
        """
        sub = DocumentCollection(tokenizer=self.tokenizer, vocabulary=self.vocabulary)
        for new_id, doc_id in enumerate(doc_ids):
            original = self._documents[doc_id]
            sub._documents.append(
                Document(new_id, original.tokens, name=original.name)
            )
        return sub

    def __repr__(self) -> str:
        return (
            f"DocumentCollection(docs={len(self)}, "
            f"vocab={len(self.vocabulary)}, tokens={self.total_tokens()})"
        )
