"""The mutable memtable tier of the ingestion pipeline.

A memtable holds the documents that arrived since the last seal, under
*local* ids ``0..n-1`` with a fixed global base (``doc_lo``).  The
tiered probe layer (:mod:`repro.ingest.tiered`) offsets its hits back
into the global doc-id space, exactly like a shard.

An add only appends the document's ranks to the memtable's one rank
column, a :class:`RankColumn`: nothing is signatured or fingerprinted.
The memtable's index is frozen
:class:`~repro.index.compact.CompactIntervalIndex` columns over its first
``columns.num_documents`` documents.  :meth:`Memtable.catch_up` indexes
the documents added since — a slice of the column — in one array pass
(:meth:`~repro.index.compact.CompactIntervalIndex.from_rank_docs`) and joins
them on with :meth:`~repro.index.compact.CompactIntervalIndex.merged` — the
columns a build over all ``n`` documents writes.  It replaces the
columns object and never mutates one.  The store calls it only under
the write side of its lock: at seal, so a sealed memtable is whole and
a fold never writes; for a frozen snapshot of the live index; and from
a query that finds the active memtable behind.  A probe reads the
current columns and writes nothing.
"""

from __future__ import annotations

import numpy as np

from ..index.compact import CompactIntervalIndex, PackedRankDocs
from ..params import SearchParams
from ..partition.scheme import PartitionScheme

#: Tokens (and documents) a memtable's rank column has room for before
#: its first growth ...
COLUMN_START = 1 << 12

#: ... and the factor each growth multiplies that room by: amortised
#: O(1) per appended token, and at most this many times the used bytes.
COLUMN_GROWTH = 2


class RankColumn(PackedRankDocs):
    """A memtable's documents: one growing rank column plus offsets.

    The values and offsets live in buffers with room to spare
    (:data:`COLUMN_START`, times :data:`COLUMN_GROWTH` at each growth);
    ``_values`` and ``_offsets`` are views of their used prefixes, so
    every reader — ``rank_slice``, ``doc_length``, ``doc_ranks``, a
    catch-up's or a seal's slice — reads the column as
    :class:`~repro.index.compact.PackedRankDocs` does.  The values take
    the width of the ranks appended (int8 while every rank fits it) and
    widen when wider ones arrive.  Only the store's writer appends, so
    no reader sees a column mid-append.
    """

    def __init__(self) -> None:
        self._value_room = np.empty(COLUMN_START, dtype=np.int8)
        self._offset_room = np.zeros(COLUMN_START + 1, dtype=np.int64)
        super().__init__(self._offset_room[:1], self._value_room[:0])

    def append(self, ranks: np.ndarray) -> None:
        """Append one document's ranks (an integer array)."""
        self._write(1, len(ranks), ranks)

    def extend(self, documents: PackedRankDocs) -> None:
        """Append every document of a packed rank column in one block."""
        columns = documents.to_arrays()
        # Summed at int64 before the column's end is added: a packed
        # column's lengths may be int8 or int16.
        lengths = columns["lengths"]
        self._write(len(lengths), np.cumsum(lengths, dtype=np.int64), columns["values"])

    def _write(self, count: int, ends, values: np.ndarray) -> None:
        """Append ``count`` documents over ``values``, each ending at its
        entry of ``ends`` (offsets into ``values``, an int or int64)."""
        docs, end = len(self._offsets) - 1, len(self._values)
        last, stop = docs + count, end + len(values)
        self._reserve(last, stop, values.dtype)
        self._value_room[end:stop] = values
        self._offset_room[docs + 1 : last + 1] = ends + end
        self._offsets = self._offset_room[: last + 1]
        self._values = self._value_room[:stop]

    def _reserve(self, docs: int, tokens: int, dtype: np.dtype) -> None:
        """Room for ``docs`` documents and ``tokens`` values, the values
        at least ``dtype`` wide: a growth copies the used prefix into a
        buffer :data:`COLUMN_GROWTH` times larger (or as large as asked)."""
        room = self._value_room
        if tokens > len(room) or dtype.itemsize > room.itemsize:
            self._value_room = _grown(
                room, len(self._values), tokens, np.promote_types(room.dtype, dtype)
            )
        if docs >= len(self._offset_room):
            self._offset_room = _grown(
                self._offset_room, len(self._offsets), docs + 1, np.int64
            )


def _grown(room: np.ndarray, used: int, need: int, dtype) -> np.ndarray:
    """A buffer of ``dtype`` with room for ``need`` entries holding
    ``room``'s first ``used``: as long as ``room`` when that is enough
    (a widening), else :data:`COLUMN_GROWTH` times longer or ``need``."""
    size = len(room) if need <= len(room) else max(need, COLUMN_GROWTH * len(room))
    grown = np.empty(size, dtype=dtype)
    grown[:used] = room[:used]
    return grown


class Memtable:
    """Tier over documents ``doc_lo .. doc_lo+n-1``, indexed a write
    burst at a time; the active tier's probe object."""

    __slots__ = ("doc_lo", "generation", "columns", "rank_docs", "total_tokens")

    def __init__(
        self,
        doc_lo: int,
        generation: int,
        params: SearchParams,
        scheme: PartitionScheme,
    ) -> None:
        #: First global doc id this memtable covers.
        self.doc_lo = doc_lo
        #: Store-wide tier generation (monotone across memtables and
        #: segments; names the WAL and segment files).
        self.generation = generation
        #: Frozen columns over the first ``columns.num_documents``
        #: documents, replaced (never mutated) by :meth:`catch_up`.
        #: The documents' ranks, one growing column (``rank_docs[i]`` is
        #: global doc ``doc_lo + i``).
        self.rank_docs = RankColumn()
        self.columns = CompactIntervalIndex.from_rank_docs(
            self.rank_docs, params.w, params.tau, scheme
        )
        self.total_tokens = 0

    def add(self, ranks: np.ndarray) -> int:
        """Append one document's ranks (an integer array); returns its
        *global* id."""
        local_id = len(self.rank_docs)
        self.rank_docs.append(ranks)
        self.total_tokens += len(ranks)
        return self.doc_lo + local_id

    def extend(self, documents: PackedRankDocs) -> None:
        """Append every document of a packed rank column in one block
        (a store's bootstrap)."""
        self.rank_docs.extend(documents)
        self.total_tokens += len(documents.to_arrays()["values"])

    @property
    def behind(self) -> bool:
        """True while documents were added since the last catch-up."""
        return self.columns.num_documents < len(self.rank_docs)

    def catch_up(self) -> CompactIntervalIndex:
        """Index the documents added since the last catch-up and return
        the columns over all of them.  The caller holds the store's
        write side."""
        columns = self.columns
        indexed = columns.num_documents
        if indexed < len(self.rank_docs):
            fresh = CompactIntervalIndex.from_rank_docs(
                self.rank_docs.docs_from(indexed),
                columns.w, columns.tau, columns.scheme,
            )
            self.columns = (
                CompactIntervalIndex.merged([(columns, 0), (fresh, indexed)])
                if indexed else fresh
            )
        return self.columns

    # -- what a tier's index answers: the current columns -------------
    def probe_many(self, signatures, signs=None):
        return self.columns.probe_many(signatures, signs)

    @property
    def num_postings(self) -> int:
        return self.columns.num_postings

    @property
    def doc_hi(self) -> int:
        """One past the last global doc id this memtable covers."""
        return self.doc_lo + len(self.rank_docs)

    def __len__(self) -> int:
        return len(self.rank_docs)

    def __repr__(self) -> str:
        return (
            f"Memtable([{self.doc_lo},{self.doc_hi}), "
            f"gen={self.generation}, tokens={self.total_tokens}, "
            f"indexed={self.columns.num_documents})"
        )
