"""Compact, frozen, array-backed form of the interval index.

:class:`CompactIntervalIndex` freezes an :class:`IntervalIndex` into
five flat numpy columns: sorted 64-bit signature-hash keys, per-key
offsets, and packed ``(doc, u, v)`` posting columns.  ``probe_many``
keeps the exact contract of the dict index (one
:class:`~repro.index.intervals.ProbeBatch` per batch of signatures) but
resolves keys by binary search instead of hashing tuples, and the whole
structure is a handful of contiguous buffers — ~10x less Python-object
overhead, picklable in O(bytes), and mmap-able without copying (the
snapshot envelope in :mod:`repro.persistence` stores these columns
verbatim).

Keys are :func:`~repro.signatures.signature_hash` values (the paper's
Section 7.1 signature hashing); this module is the only place that
decides so — the dict index keys on rank tuples.  A 64-bit hash
collision merges two postings lists, which can only *add* candidates —
rolling verification removes them — so final search results are
pair-identical to the dict index (covered by the collision tests).

:class:`PackedRankDocs` applies the same treatment to the searcher's
per-document rank sequences (one values column + offsets).  The
verifier reads it by slice — ``rank_slice(doc_id, lo, hi)`` cuts the
ranks of one candidate interval straight off the column — so a search
decodes no document and the container holds nothing but its two
columns.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from ..errors import IndexStateError
from ..signatures.generate import Signature, signature_hash, signature_hashes
from .interval_index import IntervalIndex
from .intervals import ProbeBatch, WindowInterval

#: Typed probe result with named fields ``doc_id``/``u``/``v``.
#: An alias of :class:`WindowInterval` (a NamedTuple), so it keeps
#: tuple-compat — unpacking, ordering, equality — while giving call
#: sites attribute access; the dict index returns it from ``probe``.
ProbeHit = WindowInterval

_FROZEN_MESSAGE = (
    "compact index is frozen: build documents into an IntervalIndex "
    "and re-freeze (CompactIntervalIndex.from_index) to change it"
)

_INT32 = np.iinfo(np.int32)


def _packed_column(values: Sequence[int]) -> np.ndarray:
    """An int32 column when every value fits, otherwise int64."""
    arr = np.asarray(values, dtype=np.int64)
    if arr.size == 0 or (
        _INT32.min <= int(arr.min()) and int(arr.max()) <= _INT32.max
    ):
        return arr.astype(np.int32)
    return arr


class CompactIntervalIndex:
    """Frozen signature -> postings index over flat array columns.

    Construct with :meth:`from_index` (freeze a built dict index),
    :meth:`merged` (concatenate tier indexes — the LSM fold) or
    :meth:`from_arrays` (rehydrate saved/mapped columns).  The probe
    contract matches :meth:`IntervalIndex.probe_many`; mutation
    (``index_document``/``merge``) raises
    :class:`~repro.errors.IndexStateError` — freezing is one-way.
    """

    #: Sentinel the searcher checks before mutating its index.
    frozen = True

    #: Column names in the order :meth:`to_arrays` emits them.
    COLUMNS = ("keys", "offsets", "docs", "us", "vs")

    def __init__(
        self,
        w: int,
        tau: int,
        scheme,
        *,
        keys: np.ndarray,
        offsets: np.ndarray,
        docs: np.ndarray,
        us: np.ndarray,
        vs: np.ndarray,
        num_documents: int = 0,
        num_windows: int = 0,
        build_stats: dict[str, int] | None = None,
    ) -> None:
        self.w = w
        self.tau = tau
        self.scheme = scheme
        self.num_documents = num_documents
        self.num_windows = num_windows
        self.build_stats = dict(build_stats or {})
        if len(offsets) != len(keys) + 1:
            raise IndexStateError(
                f"offsets column has {len(offsets)} entries for "
                f"{len(keys)} keys (want keys + 1)"
            )
        if not (len(docs) == len(us) == len(vs)):
            raise IndexStateError("posting columns differ in length")
        self._keys = keys
        self._offsets = offsets
        self._docs = docs
        self._us = us
        self._vs = vs
        # Offsets with one extra trailing entry so the batched gather
        # can treat "miss" as slot len(keys): that slot's postings run
        # is [total, total) — empty — and no mask/compress pass is
        # needed to drop missed signatures from the fancy-indexing.
        self._offsets_padded = np.concatenate([offsets, offsets[-1:]])
        # signature -> slot memo (misses stored as -1).  Keyed on the
        # signature tuple, not its hash: the pure-Python FNV hash is the
        # dominant cost of a scalar slot lookup (~2.5us vs ~0.2us for a dict
        # hit), so a repeat probe of a memoized signature skips hashing
        # and the scalar np.searchsorted alike.  Cleared wholesale at
        # the bound to stay O(1) per probe; worst-case footprint is a
        # few MiB.
        self._slots: dict[Signature, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_index(cls, index: IntervalIndex) -> "CompactIntervalIndex":
        """Freeze a built dict :class:`IntervalIndex` into columns.

        Tuple keys are hashed; equal hashes (genuine 64-bit collisions)
        share one postings run.  Within a key, postings keep the source
        append order.
        """
        buckets: dict[int, list[WindowInterval]] = {}
        for key, postings in index._postings.items():
            h = signature_hash(key)
            existing = buckets.get(h)
            if existing is None:
                buckets[h] = list(postings)
            else:
                existing.extend(postings)
        ordered = sorted(buckets.items())
        keys = np.asarray([h for h, _ in ordered], dtype=np.uint64)
        offsets = np.zeros(len(ordered) + 1, dtype=np.int64)
        docs: list[int] = []
        us: list[int] = []
        vs: list[int] = []
        for i, (_, postings) in enumerate(ordered):
            for interval in postings:
                docs.append(interval.doc_id)
                us.append(interval.u)
                vs.append(interval.v)
            offsets[i + 1] = len(docs)
        return cls(
            index.w,
            index.tau,
            index.scheme,
            keys=keys,
            offsets=offsets,
            docs=_packed_column(docs),
            us=_packed_column(us),
            vs=_packed_column(vs),
            num_documents=index.num_documents,
            num_windows=index.num_windows,
            build_stats=index.build_stats,
        )

    @classmethod
    def merged(
        cls, parts: Sequence[tuple], removed: Iterable[int] = ()
    ) -> "CompactIntervalIndex":
        """Concatenate tier indexes into one — the LSM fold.

        ``parts`` is a non-empty list of ``(index, doc_offset)`` over
        disjoint doc-id blocks in ascending order; each index holds its
        block under local ids and is shifted by its offset.  A dict
        :class:`IntervalIndex` part is frozen first (:meth:`from_index`).
        Postings of the doc ids in ``removed`` (output ids) are dropped.

        Postings are ``(doc, u, v)`` triples under one global order, so
        no signature is generated again: a stable sort of the
        concatenated postings by key keeps, within a key, part order and
        then each part's append order — the order a serial build over
        the same documents appends in.  Absent a 64-bit hash collision
        the columns equal :meth:`from_index` of that build (a collision
        only permutes postings within the shared key).  ``num_windows``
        and ``build_stats`` are summed over the parts, so they still
        count the work spent on documents dropped here.
        """
        frozen = [
            (index if isinstance(index, cls) else cls.from_index(index), base)
            for index, base in parts
        ]
        keys = np.concatenate(
            [np.repeat(p._keys, np.diff(p._offsets)) for p, _ in frozen]
        )
        docs = np.concatenate(
            [p._docs.astype(np.int64) + base for p, base in frozen]
        )
        keep = ~np.isin(docs, np.fromiter(removed, dtype=np.int64))
        order = np.flatnonzero(keep)
        order = order[np.argsort(keys[order], kind="stable")]
        unique_keys, counts = np.unique(keys[order], return_counts=True)
        offsets = np.zeros(len(unique_keys) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        first = frozen[0][0]
        build_stats: dict[str, int] = {}
        for part, _ in frozen:
            for name, value in part.build_stats.items():
                build_stats[name] = build_stats.get(name, 0) + value
        return cls(
            first.w,
            first.tau,
            first.scheme,
            keys=unique_keys,
            offsets=offsets,
            docs=_packed_column(docs[order]),
            us=_packed_column(np.concatenate([p._us for p, _ in frozen])[order]),
            vs=_packed_column(np.concatenate([p._vs for p, _ in frozen])[order]),
            num_documents=sum(p.num_documents for p, _ in frozen),
            num_windows=sum(p.num_windows for p, _ in frozen),
            build_stats=build_stats,
        )

    @classmethod
    def from_arrays(
        cls, meta: dict, scheme, arrays: dict[str, np.ndarray]
    ) -> "CompactIntervalIndex":
        """Rehydrate from :meth:`to_arrays` output (or mapped views)."""
        return cls(
            meta["w"],
            meta["tau"],
            scheme,
            keys=arrays["keys"],
            offsets=arrays["offsets"],
            docs=arrays["docs"],
            us=arrays["us"],
            vs=arrays["vs"],
            num_documents=meta.get("num_documents", 0),
            num_windows=meta.get("num_windows", 0),
            build_stats=meta.get("build_stats"),
        )

    def to_arrays(self) -> tuple[dict, dict[str, np.ndarray]]:
        """``(meta, columns)`` — everything but the scheme object."""
        meta = {
            "w": self.w,
            "tau": self.tau,
            "num_documents": self.num_documents,
            "num_windows": self.num_windows,
            "build_stats": dict(self.build_stats),
        }
        arrays = {
            "keys": self._keys,
            "offsets": self._offsets,
            "docs": self._docs,
            "us": self._us,
            "vs": self._vs,
        }
        return meta, arrays

    # ------------------------------------------------------------------
    # Probe contract (mirrors IntervalIndex)
    # ------------------------------------------------------------------
    #: Bound on the hash -> slot memo (entries, hits and misses alike).
    _SLOT_CACHE_MAX = 1 << 16

    #: Below this many memo *misses* in one batch, they resolve through
    #: the scalar slot path: the vectorized FNV/searchsorted pipeline
    #: has a fixed numpy-call overhead that only amortizes once a couple
    #: dozen signatures need hashing at once.
    _VECTOR_MIN = 24

    def _slot(self, signature: Signature) -> int:
        slot = self._slots.get(signature)
        if slot is None:
            keys = self._keys
            h = signature_hash(signature)
            lo = int(np.searchsorted(keys, h))
            slot = lo if lo < len(keys) and int(keys[lo]) == h else -1
            if len(self._slots) >= self._SLOT_CACHE_MAX:
                self._slots.clear()
            self._slots[signature] = slot
        return slot

    def probe_many(
        self,
        signatures: Sequence[Signature],
        signs: Sequence[int] | None = None,
    ) -> ProbeBatch:
        """Resolve a whole batch of signatures with one vectorized gather.

        Memo-first: every signature is first looked up in the tuple ->
        slot memo (one dict hit, no hashing), and only the misses are
        resolved — scalar for a handful, or by hashing them all at once
        (:func:`~repro.signatures.generate.signature_hashes`) plus a
        single ``np.searchsorted`` over the sorted key column when there
        are enough to amortize the vector pipeline.  Resolved slots are
        memoized, so steady-state probing of a working set is pure dict
        hits followed by one fancy-indexed gather of all hit postings
        runs out of the flat columns — no per-posting Python work at
        all.  Hit order matches the scalar loop: signature order,
        postings append order within a signature.  ``signs`` carries the
        per-signature +1/-1 candidate delta (omitted = all +1).
        """
        n = len(signatures)
        if n == 0:
            return ProbeBatch.empty()
        memo = self._slots
        slot_list: list[int] = []
        missing: list[int] = []
        for signature in signatures:
            slot = memo.get(signature)
            if slot is None:
                missing.append(len(slot_list))
                slot_list.append(-1)
            else:
                slot_list.append(slot)
        if missing:
            if len(missing) < self._VECTOR_MIN:
                for i in missing:
                    slot_list[i] = self._slot(signatures[i])
            else:
                keys = self._keys
                hashes = signature_hashes([signatures[i] for i in missing])
                if len(keys):
                    positions = np.minimum(
                        np.searchsorted(keys, hashes), len(keys) - 1
                    )
                    resolved = np.where(
                        keys[positions] == hashes, positions, -1
                    ).tolist()
                else:
                    resolved = [-1] * len(missing)
                if len(memo) + len(missing) > self._SLOT_CACHE_MAX:
                    memo.clear()
                for i, slot in zip(missing, resolved):
                    slot_list[i] = slot
                    memo[signatures[i]] = slot
        slot_column = np.asarray(slot_list, dtype=np.int64)
        # Misses gather through the padded sentinel slot (empty run).
        slot_column[slot_column < 0] = len(self._keys)
        padded = self._offsets_padded
        starts = padded[slot_column]
        counts = padded[slot_column + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return ProbeBatch.empty(probed=n)
        # Gather all hit postings runs in one pass: for each run,
        # `starts` repeated over its length plus a within-run ramp.
        run_bases = np.cumsum(counts) - counts
        take = np.repeat(starts - run_bases, counts) + np.arange(total)
        if signs is None:
            hit_signs = np.ones(total, dtype=np.int8)
        else:
            hit_signs = np.repeat(np.asarray(signs, dtype=np.int8), counts)
        return ProbeBatch(
            self._docs[take], self._us[take], self._vs[take],
            hit_signs, counts, probed=n,
        )

    def __contains__(self, signature: Signature) -> bool:
        return self._slot(signature) >= 0

    # ------------------------------------------------------------------
    # Mutation is refused — the structure is frozen by design.
    # ------------------------------------------------------------------
    def index_document(self, doc_id: int, ranks: Sequence[int]) -> None:
        raise IndexStateError(_FROZEN_MESSAGE)

    def merge(self, other) -> None:
        raise IndexStateError(_FROZEN_MESSAGE)

    # ------------------------------------------------------------------
    # Introspection (same surface as IntervalIndex)
    # ------------------------------------------------------------------
    @property
    def num_signatures(self) -> int:
        """Number of distinct signature-hash keys indexed."""
        return len(self._keys)

    @property
    def num_postings(self) -> int:
        """Total number of stored intervals."""
        return len(self._docs)

    def size_in_entries(self) -> int:
        """Abstract index size: one entry per (signature, interval)."""
        return self.num_postings

    def postings_lengths(self) -> Iterator[int]:
        """Iterator of per-key postings-run lengths (analysis)."""
        return iter(np.diff(self._offsets).tolist())

    def nbytes(self) -> int:
        """Bytes held by the five columns (the mmap-able payload)."""
        return sum(
            column.nbytes
            for column in (self._keys, self._offsets, self._docs, self._us, self._vs)
        )

    def __repr__(self) -> str:
        return (
            f"CompactIntervalIndex(signatures={self.num_signatures}, "
            f"postings={self.num_postings}, docs={self.num_documents}, "
            f"bytes={self.nbytes()})"
        )


class PackedRankDocs(Sequence):
    """Per-document rank sequences packed into one values column.

    The read path is :meth:`rank_slice`: the verifier asks for the
    ranks of one candidate interval and gets that slice of the column
    as a plain Python list (what its per-element roll wants), whatever
    the document's length.  ``packed[doc_id]`` decodes a whole document
    — the :class:`Sequence` contract, for the callers that walk
    documents (fingerprint builds, tests).  Nothing is cached and
    nothing is written after construction, so any number of search
    threads may read one instance.  Read-only: appending documents
    requires thawing to lists first (the searcher's frozen guard raises
    before ever getting here).
    """

    def __init__(self, offsets: np.ndarray, values: np.ndarray) -> None:
        if len(offsets) == 0:
            raise IndexStateError("offsets column must have at least 1 entry")
        self._offsets = offsets
        self._values = values

    @classmethod
    def from_lists(cls, rank_docs: Sequence[Sequence[int]]) -> "PackedRankDocs":
        offsets = np.zeros(len(rank_docs) + 1, dtype=np.int64)
        total = 0
        for i, ranks in enumerate(rank_docs):
            total += len(ranks)
            offsets[i + 1] = total
        values: list[int] = []
        for ranks in rank_docs:
            values.extend(ranks)
        return cls(offsets, _packed_column(values))

    @classmethod
    def concatenated(
        cls, parts: Sequence[Sequence[Sequence[int]]], removed: Iterable[int] = ()
    ) -> "PackedRankDocs":
        """Rank columns of consecutive tiers as one — the fold's companion
        to :meth:`CompactIntervalIndex.merged`.

        A plain list-of-lists part is packed first (:meth:`from_lists`).
        Each doc id in ``removed`` (output ids) keeps its slot with an
        empty run.  Columns are sliced directly: no document is decoded.
        """
        packed = [p if isinstance(p, cls) else cls.from_lists(p) for p in parts]
        lengths = np.concatenate([np.diff(p._offsets) for p in packed])
        values = np.concatenate([p._values for p in packed])
        dropped = np.zeros(len(lengths), dtype=bool)
        dropped[np.fromiter(removed, dtype=np.int64)] = True
        values = values[~np.repeat(dropped, lengths)]
        lengths[dropped] = 0
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(offsets, _packed_column(values))

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {"offsets": self._offsets, "values": self._values}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "PackedRankDocs":
        return cls(arrays["offsets"], arrays["values"])

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, doc_id: int) -> list[int]:
        if isinstance(doc_id, slice):
            return [self[i] for i in range(*doc_id.indices(len(self)))]
        if doc_id < 0:
            doc_id += len(self)
        if not 0 <= doc_id < len(self):
            raise IndexError(f"doc_id {doc_id} out of range")
        start = int(self._offsets[doc_id])
        end = int(self._offsets[doc_id + 1])
        return self._values[start:end].tolist()

    def rank_slice(self, doc_id: int, lo: int, hi: int) -> list[int]:
        """``packed[doc_id][lo:hi]`` for ``0 <= lo <= hi`` without
        decoding the document: a view of the values column, clipped to
        the document's run, as plain ints.  ``doc_id`` is not checked —
        the verifier gets it from a probe of the index over these very
        documents."""
        offsets = self._offsets
        start = offsets.item(doc_id)
        end = offsets.item(doc_id + 1)
        return self._values[min(start + lo, end) : min(start + hi, end)].tolist()

    def doc_length(self, doc_id: int) -> int:
        """``len(packed[doc_id])`` from the two offsets around it; no
        rank is read."""
        offsets = self._offsets
        return offsets.item(doc_id + 1) - offsets.item(doc_id)

    def nbytes(self) -> int:
        """Bytes held by the two columns."""
        return self._offsets.nbytes + self._values.nbytes

    def __repr__(self) -> str:
        return (
            f"PackedRankDocs(docs={len(self)}, "
            f"tokens={len(self._values)}, bytes={self.nbytes()})"
        )
