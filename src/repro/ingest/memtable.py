"""The mutable memtable tier of the ingestion pipeline.

A memtable holds the documents that arrived since the last seal, under
*local* ids ``0..n-1`` with a fixed global base (``doc_lo``).  The
tiered probe layer (:mod:`repro.ingest.tiered`) offsets its hits back
into the global doc-id space, exactly like a shard.

An add only appends the document's rank list (and its routing
fingerprints, when the store's policy keeps them): nothing is
signatured.  The memtable's index is frozen
:class:`~repro.index.compact.CompactIntervalIndex` columns over its first
``columns.num_documents`` documents.  :meth:`Memtable.catch_up` indexes
the documents added since in one array pass
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

from collections.abc import Sequence

from ..index.compact import CompactIntervalIndex, PackedRankDocs
from ..params import SearchParams
from ..partition.scheme import PartitionScheme
from ..routing import FingerprintTier


class Memtable:
    """Tier over documents ``doc_lo .. doc_lo+n-1``, indexed a write
    burst at a time; the active tier's probe object."""

    __slots__ = (
        "doc_lo", "generation", "columns", "rank_docs", "total_tokens",
        "fingerprints",
    )

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
        self.columns = CompactIntervalIndex.from_rank_docs(
            PackedRankDocs.from_lists([]), params.w, params.tau, scheme
        )
        #: Local-id rank sequences (``rank_docs[i]`` is global doc
        #: ``doc_lo + i``).
        self.rank_docs: list[list[int]] = []
        self.total_tokens = 0
        #: Routing fingerprints, maintained on insert when the store's
        #: policy enables the tier (``None`` otherwise — a per-request
        #: routed query then builds them on demand, see
        #: :class:`~repro.ingest.tiered.TieredFingerprints`).
        routing = params.routing
        if routing.enabled:
            self.fingerprints = FingerprintTier(
                doc_lo=doc_lo, **routing.layout(params.w)
            )
        else:
            self.fingerprints = None

    def add(self, ranks: Sequence[int]) -> int:
        """Append one document's rank sequence; returns its *global* id."""
        local_id = len(self.rank_docs)
        self.rank_docs.append(list(ranks))
        self.total_tokens += len(ranks)
        if self.fingerprints is not None:
            self.fingerprints.add(ranks)
        return self.doc_lo + local_id

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
                PackedRankDocs.from_lists(self.rank_docs[indexed:]),
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
