"""The mutable memtable tier of the ingestion pipeline.

A memtable is a small dict-backed :class:`~repro.index.IntervalIndex`
over the documents that arrived since the last seal, indexed under
*local* ids ``0..n-1`` with a fixed global base (``doc_lo``).  The
tiered probe layer (:mod:`repro.ingest.tiered`) offsets its hits back
into the global doc-id space, exactly like a shard.

Sealing is a pointer swap: the store freezes the current memtable (it
is never mutated again, so the background fold can read it without
locks) and opens an empty successor at the next base.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..index.interval_index import IntervalIndex
from ..params import SearchParams
from ..partition.scheme import PartitionScheme
from ..routing import FingerprintTier


class Memtable:
    """Mutable dict-index tier over documents ``doc_lo .. doc_lo+n-1``."""

    __slots__ = (
        "doc_lo", "generation", "index", "rank_docs", "total_tokens",
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
        self.index = IntervalIndex(params.w, params.tau, scheme)
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
        """Index one document's rank sequence; returns its *global* id."""
        local_id = len(self.rank_docs)
        self.rank_docs.append(list(ranks))
        self.index.index_document(local_id, ranks)
        self.total_tokens += len(ranks)
        if self.fingerprints is not None:
            self.fingerprints.add(ranks)
        return self.doc_lo + local_id

    @property
    def doc_hi(self) -> int:
        """One past the last global doc id this memtable covers."""
        return self.doc_lo + len(self.rank_docs)

    def __len__(self) -> int:
        return len(self.rank_docs)

    def __repr__(self) -> str:
        return (
            f"Memtable([{self.doc_lo},{self.doc_hi}), "
            f"gen={self.generation}, tokens={self.total_tokens})"
        )
