"""Tiered index and rank-sequence views over memtables + segments.

The LSM store keeps the corpus as a sequence of tiers that tile the
global doc-id space contiguously: frozen compact segments first, then
any sealed (immutable) memtables, then the active memtable.  Each tier
indexes its documents under local ids; these views glue the tiers back
into the single-index shape the pkwise search kernel expects:

* :class:`TieredIntervalIndex` satisfies the ``probe_many`` contract
  of :class:`~repro.index.compact.CompactIntervalIndex`.  A batched probe
  fans out to every tier, offsets each tier's hit docs by its base, and
  merges the batches *signature-wise* with one stable argsort — entries
  for each probed signature come back grouped, ordered by tier base and
  within a tier in postings-append order, which is exactly the order a
  serial from-scratch build over the same documents would have stored
  (postings are appended in doc-id order, so concatenating disjoint
  doc-id blocks in order is exact; a fold applies it once more, for good —
  :meth:`~repro.index.compact.CompactIntervalIndex.merged` sorts the tiers'
  concatenated postings the same way, without re-signaturing).
* :class:`TieredRankDocs` resolves a global doc id to its owning tier's
  rank sequence; verification reads it by slice (``rank_slice``).
* :class:`TieredFingerprints` glues the tiers' routing survivor masks
  by doc id, so the kernel's routing gate sees one fingerprint tier.

All three are read-only views: tier *membership* only changes when the store
re-points its engine over a new tier tuple, under the write side of
its lock, so a search (which holds the read side) never sees tiers
appear or vanish mid-query.  The active memtable's columns are replaced
under the write side too, when a seal or a query catches it up.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence

import numpy as np

from ..errors import IndexStateError
from ..index.intervals import ProbeBatch
from ..routing import FingerprintTier


class Tier:
    """One doc-id-contiguous slice of the corpus with its own index."""

    __slots__ = (
        "doc_lo", "_doc_hi", "generation", "index", "rank_docs", "kind",
        "path", "fingerprints",
    )

    def __init__(
        self, doc_lo, doc_hi, generation, index, rank_docs, kind, path=None,
        fingerprints=None,
    ) -> None:
        self.doc_lo = doc_lo
        #: ``None`` marks the active-memtable tier: its upper bound
        #: tracks the shared rank column live, so adds are visible
        #: through already-installed views without a reinstall.
        self._doc_hi = doc_hi
        self.generation = generation
        #: ``probe_many``-capable index over local ids ``0..doc_hi-doc_lo-1``:
        #: frozen columns, or the active
        #: :class:`~repro.ingest.memtable.Memtable` itself (its columns are
        #: replaced as it catches up).
        self.index = index
        #: Local-id rank sequences: a segment's
        #: :class:`~repro.index.compact.PackedRankDocs`, or a memtable's
        #: :class:`~repro.ingest.memtable.RankColumn` (live for the
        #: active memtable, appended to no more once sealed).
        self.rank_docs = rank_docs
        #: ``"segment"`` (frozen on disk or in memory) or ``"memtable"``.
        self.kind = kind
        #: Backing snapshot file for segments persisted to disk.
        self.path = path
        #: Routing :class:`~repro.routing.FingerprintTier` over this
        #: tier's documents (local ids): the tiers' joined by the fold
        #: that made a segment, or ``None`` until
        #: :class:`TieredFingerprints` builds them on the
        #: first routed query, and extends them on the next ones as an
        #: active memtable grows.
        self.fingerprints = fingerprints

    @property
    def doc_hi(self) -> int:
        """One past the highest global doc id this tier covers."""
        if self._doc_hi is not None:
            return self._doc_hi
        return self.doc_lo + len(self.rank_docs)

    def __len__(self) -> int:
        return self.doc_hi - self.doc_lo

    def __repr__(self) -> str:
        return (
            f"Tier({self.kind}[{self.doc_lo},{self.doc_hi}), "
            f"gen={self.generation})"
        )


def tier_fingerprints(tier: Tier, w: int) -> FingerprintTier:
    """``tier``'s fingerprints, kept on it: built from its rank column
    for the documents they miss (all of them at first, an active
    memtable's added since later), then joined on."""
    built = tier.fingerprints
    have = 0 if built is None else built.ndocs
    if have < len(tier):
        fresh = FingerprintTier.from_rank_docs(tier.rank_docs.docs_from(have), w=w)
        built = tier.fingerprints = (
            fresh if built is None else FingerprintTier.concatenated([built, fresh])
        )
    return built


class TieredIntervalIndex:
    """Probe-side fan-out over an ordered tuple of :class:`Tier`\\ s.

    Mutation goes through the store (which builds a new view per
    install), never through this object — ``add_document`` raises like
    the frozen compact index does.
    """

    frozen = False

    def __init__(self, tiers: Sequence[Tier], w: int, tau: int, scheme) -> None:
        starts = [tier.doc_lo for tier in tiers]
        if starts != sorted(starts):
            raise IndexStateError("tiers must be ordered by doc_lo")
        self.tiers = tuple(tiers)
        self.w = w
        self.tau = tau
        self.scheme = scheme

    # -- probe contract -------------------------------------------------
    def probe_many(self, signatures, signs=None) -> ProbeBatch:
        """Batched probe across all tiers, merged signature-wise.

        Stable-sorting the concatenated entries by probed-signature
        index groups each signature's hits back together while
        preserving tier order (ascending ``doc_lo``) within a group —
        the append order of a serial single-index build.
        """
        batches: list[tuple[int, ProbeBatch]] = []
        for tier in self.tiers:
            batch = tier.index.probe_many(signatures, signs)
            if batch.entries:
                batches.append((tier.doc_lo, batch))
        if not batches:
            return ProbeBatch.empty(probed=len(signatures))
        if len(batches) == 1:
            doc_lo, batch = batches[0]
            if doc_lo == 0:
                return batch
            return ProbeBatch(
                batch.docs + doc_lo, batch.us, batch.vs,
                batch.signs, batch.sig_counts, batch.probed,
            )
        probed = batches[0][1].probed
        owners = np.concatenate(
            [
                np.repeat(np.arange(probed, dtype=np.int64), batch.sig_counts)
                for _lo, batch in batches
            ]
        )
        order = np.argsort(owners, kind="stable")
        docs = np.concatenate([batch.docs + lo for lo, batch in batches])[order]
        us = np.concatenate([batch.us for _lo, batch in batches])[order]
        vs = np.concatenate([batch.vs for _lo, batch in batches])[order]
        signs_column = np.concatenate([batch.signs for _lo, batch in batches])[order]
        sig_counts = batches[0][1].sig_counts.copy()
        for _lo, batch in batches[1:]:
            sig_counts = sig_counts + batch.sig_counts
        return ProbeBatch(docs, us, vs, signs_column, sig_counts, probed)

    # -- mutation is a store concern ------------------------------------
    def add_document(self, doc_id, ranks) -> None:
        raise IndexStateError(
            "a tiered LSM index is mutated through its IngestStore "
            "(Index.add / Index.remove), never directly"
        )

    index_document = add_document

    # -- aggregate introspection ----------------------------------------
    @property
    def num_postings(self) -> int:
        return sum(tier.index.num_postings for tier in self.tiers)

    def __repr__(self) -> str:
        return (
            f"TieredIntervalIndex({len(self.tiers)} tiers, "
            f"postings={self.num_postings})"
        )


class TieredRankDocs(Sequence):
    """Global doc id -> rank sequence, resolved through the owning tier.

    Length is derived from the *last* tier's (possibly live) upper
    bound, so a view over the active memtable sees documents the moment
    they are added.
    """

    __slots__ = ("_tiers", "_starts", "_slices")

    def __init__(self, tiers: Sequence[Tier]) -> None:
        self._tiers = tuple(tiers)
        self._starts = [tier.doc_lo for tier in tiers]
        self._slices = [tier.rank_docs.rank_slice for tier in tiers]

    def __len__(self) -> int:
        if not self._tiers:
            return 0
        return self._tiers[-1].doc_hi

    def _owner(self, doc_id: int) -> Tier:
        if not 0 <= doc_id < len(self):
            raise IndexError(f"no document with id {doc_id}")
        slot = bisect_right(self._starts, doc_id) - 1
        if slot < 0:
            raise IndexError(f"doc id {doc_id} precedes the first tier")
        tier = self._tiers[slot]
        if doc_id >= tier.doc_hi:
            raise IndexError(f"doc id {doc_id} falls in a tier gap")
        return tier

    def __getitem__(self, doc_id: int):
        tier = self._owner(doc_id)
        return tier.rank_docs[doc_id - tier.doc_lo]

    def rank_slice(self, doc_id: int, lo: int, hi: int) -> list[int]:
        """``self[doc_id][lo:hi]`` cut by the owning tier's rank column
        (a segment's, or a memtable's growing one).  ``doc_id`` is not
        checked — the verifier gets it from a probe of these very tiers."""
        slot = bisect_right(self._starts, doc_id) - 1
        return self._slices[slot](doc_id - self._starts[slot], lo, hi)

    def doc_length(self, doc_id: int) -> int:
        """``len(self[doc_id])``, answered by the owning tier's offsets
        column without reading a rank."""
        tier = self._owner(doc_id)
        return tier.rank_docs.doc_length(doc_id - tier.doc_lo)

    def doc_ranks(self, doc_id: int) -> np.ndarray:
        """The owning tier's run of ``doc_id``, as an array view: what
        a reopened store's collection decodes a sealed document from.
        ``doc_id`` is not checked."""
        slot = bisect_right(self._starts, doc_id) - 1
        return self._tiers[slot].rank_docs.doc_ranks(doc_id - self._starts[slot])

    def lengths(self) -> list[int]:
        """Every document's length from the tiers' offsets columns."""
        return [n for tier in self._tiers for n in tier.rank_docs.lengths()]

    def __repr__(self) -> str:
        return f"TieredRankDocs({len(self._tiers)} tiers, docs={len(self)})"


class TieredFingerprints:
    """The tiers' routing fingerprints behind one ``survivors`` call.

    Exposes what the kernel's routing gate reads of a
    :class:`~repro.routing.FingerprintTier` — ``survivors`` and
    ``ndocs`` — over every document of every tier, each tier's mask
    placed at its first global doc id.
    """

    def __init__(self, tiers: Sequence[Tier], params) -> None:
        self._tiers = tuple(tiers)
        self._w = params.w

    @property
    def ndocs(self) -> int:
        return self._tiers[-1].doc_hi

    def survivors(self, query_ranks, *, w: int, tau: int) -> np.ndarray | None:
        """Survivor mask over global doc ids ``[0, ndocs)``, or ``None``
        when the query or budget is unprunable (the same verdict on
        every tier)."""
        out = np.zeros(self.ndocs, dtype=bool)
        for tier in self._tiers:
            if len(tier):
                mask = tier_fingerprints(tier, self._w).survivors(query_ranks, w=w, tau=tau)
                if mask is None:
                    return None
                out[tier.doc_lo : tier.doc_lo + len(mask)] = mask
        return out
