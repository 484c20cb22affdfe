"""Compact, frozen, array-backed form of the interval index.

:class:`CompactIntervalIndex` holds the interval index as five flat
numpy columns: sorted 4-byte signature-hash keys, each key's run count,
and packed ``(doc, u, v - u)`` posting columns — a posting is a window
interval ``d[u, v]``, stored as its start and its length — each integer
column at the narrowest signed width that holds its values
(:func:`_packed_column`).  Most keys hold one posting and most intervals
span a few windows, so counts and lengths mostly store at one byte where
absolute offsets and ends took four.  The constructor derives the runs'
offsets once, with one cumsum, and a probe adds the lengths back onto
the starts, so readers see ``(doc, u, v)`` as before.
A corpus is written into them in one array pass
(:meth:`CompactIntervalIndex.from_rank_docs`), and so is each write
burst of a live memtable, which
:meth:`~CompactIntervalIndex.merged` then joins onto the columns it
has.  ``probe_many`` keeps the exact contract (one
:class:`~repro.index.intervals.ProbeBatch` per batch of signatures) of
the dict :class:`IntervalIndex`, the one-document Algorithm 5 build the
tests hold these columns to, but resolves keys by binary search instead
of hashing tuples, and the whole structure is a handful of contiguous
buffers — ~10x less Python-object overhead, picklable in O(bytes), and
mmap-able without copying (the snapshot envelope in
:mod:`repro.persistence` stores these columns verbatim).

Keys are ``uint32``: 64-bit FNV-1a values xor-folded to the 4 bytes of
the paper's Section 7.1 signature hashing, and
:func:`~repro.signatures.generate.signature_hashes` is the one function
that computes them — for the build, a memtable catch-up, the fold and
every probe; the dict index keys on rank tuples.  A hash collision
merges two postings lists, which can only *add* candidates — rolling
verification removes them — so final search results are pair-identical
to the dict index (covered by the collision tests, a real 32-bit
collision among them).  Nothing is written after construction: any
number of threads may probe one instance.

:class:`PackedRankDocs` applies the same treatment to the searcher's
per-document rank sequences (one values column + offsets; a file
stores each document's length instead, and the offsets are derived on
open with one cumsum, as the runs' are).  The
verifier reads it by slice — ``rank_slice(doc_id, lo, hi)`` cuts the
ranks of one candidate interval straight off the column — so a search
decodes no document and the container holds nothing but its two
columns.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain

import numpy as np

from ..errors import IndexStateError
from ..signatures.generate import Signature, signature_hashes
from ..signatures.maintain import COUNTERS
from .interval_index import IntervalIndex
from .intervals import ProbeBatch, WindowInterval

#: Typed probe result with named fields ``doc_id``/``u``/``v``.
#: An alias of :class:`WindowInterval` (a NamedTuple), so it keeps
#: tuple-compat — unpacking, ordering, equality — while giving call
#: sites attribute access; the dict index returns it from ``probe``.
ProbeHit = WindowInterval

_FROZEN_MESSAGE = (
    "compact index is frozen: add documents through Index.add, which "
    "layers a memtable over it"
)

#: The widths a stored integer column may take below int64, narrowest first.
_NARROW = tuple(np.iinfo(dtype) for dtype in (np.int8, np.int16, np.int32))


def _packed_column(values: Sequence[int] | np.ndarray) -> np.ndarray:
    """``values`` as the narrowest of int8, int16, int32 and int64 that
    holds every one of them (an integer array already of that type is
    returned as is; an empty column is int8).

    Every stored integer column — ranks and their documents' lengths, the
    posting columns and their run counts, the routing tier's cover counts —
    is written through here, so a build, a memtable catch-up, a fold and a
    segment file all store the same widths for the same values.  Readers
    take the dtype from the column itself; a gather that hands values on
    to arithmetic widens them first (:func:`_at_least_int32`).
    """
    if not isinstance(values, np.ndarray):
        values = np.asarray(values, dtype=np.int64)
    lo, hi = (int(values.min()), int(values.max())) if values.size else (0, 0)
    for width in _NARROW:
        if width.min <= lo and hi <= width.max:
            return values.astype(width.dtype, copy=False)
    return values.astype(np.int64, copy=False)


def _at_least_int32(column: np.ndarray) -> np.ndarray:
    """``column`` widened to int32 if it is narrower.  Under NumPy 2 an
    int8 or int16 column plus a Python int wraps silently (``32700 + 100``
    is ``-32736`` at int16) or raises when the int itself does not fit,
    so a narrow id never meets a tier's base or a window length."""
    return column.astype(np.promote_types(column.dtype, np.int32), copy=False)


class CompactIntervalIndex:
    """Frozen signature -> postings index over flat array columns.

    Construct with :meth:`from_rank_docs` (index a corpus or a
    memtable's write burst), :meth:`from_index` (freeze the dict
    reference build), :meth:`merged` (concatenate tier indexes — a
    memtable catch-up and the LSM fold) or
    :meth:`from_arrays` (rehydrate saved/mapped columns).  The probe
    contract matches :meth:`IntervalIndex.probe_many`; mutation
    (``index_document``) raises
    :class:`~repro.errors.IndexStateError` — freezing is one-way.
    """

    #: Sentinel the searcher checks before mutating its index.
    frozen = True

    #: Column names in the order :meth:`to_arrays` emits them.
    COLUMNS = ("keys", "counts", "docs", "us", "lens")

    #: What ``from_rank_docs`` concatenates its blocks' posting rows onto:
    #: ``uint32`` keys, as ``signature_hashes`` yields them (a wider empty
    #: key column would widen every block's keys with it), and int8
    #: posting columns, so the rows keep the narrowest width every block
    #: fits.
    _EMPTY_ROWS = (np.empty(0, dtype=np.uint32),) + (np.empty(0, dtype=np.int8),) * 3

    def __init__(
        self,
        w: int,
        tau: int,
        scheme,
        *,
        keys: np.ndarray,
        counts: np.ndarray,
        docs: np.ndarray,
        us: np.ndarray,
        lens: np.ndarray,
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
        if len(counts) != len(keys):
            raise IndexStateError(
                f"counts column has {len(counts)} entries for {len(keys)} keys"
            )
        if not (len(docs) == len(us) == len(lens)):
            raise IndexStateError("posting columns differ in length")
        # Each run's start, derived once: int32 unless the postings need
        # more, so it costs 4 B a key in memory and nothing on file.
        offsets = np.zeros(
            len(keys) + 1,
            dtype=np.int32 if len(docs) <= np.iinfo(np.int32).max else np.int64,
        )
        np.cumsum(counts, dtype=offsets.dtype, out=offsets[1:])
        if offsets.item(-1) != len(docs):
            raise IndexStateError(
                f"counts column sums to {offsets.item(-1)} for {len(docs)} postings"
            )
        self._keys = keys
        self._counts = counts
        self._offsets = offsets
        self._docs = docs
        self._us = us
        self._lens = lens

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def _assembled(
        cls, like, keys, docs, us, lens, *, order=None, **sizes
    ) -> "CompactIntervalIndex":
        """The index over one row per posting, ``keys[i]`` being the hash
        of the signature that owns ``(docs[i], us[i], us[i] + lens[i])``.

        The sort is stable: within a key, postings keep the order they
        came in.  ``order`` is that sort, if the caller has it.  ``like``
        lends ``w``, ``tau`` and the scheme.
        """
        if order is None:
            order = np.argsort(keys, kind="stable")
        keys = keys[order]
        head = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
        return cls(
            like.w,
            like.tau,
            like.scheme,
            keys=keys[head],
            counts=_packed_column(np.diff(np.append(np.flatnonzero(head), len(keys)))),
            docs=_packed_column(docs[order]),
            us=_packed_column(us[order]),
            lens=_packed_column(lens[order]),
            **sizes,
        )

    @classmethod
    def from_rank_docs(
        cls, rank_docs: "PackedRankDocs", w: int, tau: int, scheme
    ) -> "CompactIntervalIndex":
        """Index every window of a packed corpus in one array pass.

        :class:`~repro.signatures.bulk.CorpusRuns` cuts the corpus's
        signatures into maximal window runs, a block at a time, and each
        block's runs are keyed as they come.  The columns and
        ``build_stats`` are those of :meth:`from_index` over a dict
        index that indexed the same documents one by one (a 32-bit hash
        collision only permutes postings within the shared key).
        """
        # Imported here: a process that only opens and searches snapshots
        # (every shard worker) never loads the build kernel.
        from ..signatures.bulk import CorpusRuns

        runs = CorpusRuns(rank_docs._offsets, rank_docs._values, w, tau, scheme)
        rows = [cls._EMPTY_ROWS]
        for chunk in runs.runs():
            rows.append((
                signature_hashes(chunk.ranks, chunk.lengths),
                *map(_packed_column, (chunk.docs, chunk.us, chunk.vs - chunk.us)),
            ))
        columns = [np.concatenate(column) for column in zip(*rows)]
        del rows  # one copy of the rows through the sort by key
        keys = columns[0]
        return cls._assembled(
            runs,
            *columns,
            # Keys in no order: sorted by their two 16-bit halves, which
            # numpy sorts by radix, several times faster than by the 32
            # bits at once (a merge of sorted parts is the other way round).
            order=np.lexsort(((keys & 0xFFFF).astype(np.uint16), (keys >> 16).astype(np.uint16))),
            num_documents=len(rank_docs),
            num_windows=runs.num_windows,
            build_stats={name: getattr(runs, name) for name in COUNTERS},
        )

    @classmethod
    def from_index(cls, index: IntervalIndex) -> "CompactIntervalIndex":
        """Freeze a built dict :class:`IntervalIndex` into columns: what
        the tests hold :meth:`from_rank_docs` and a memtable's columns
        to, byte for byte.  No live path calls it.

        Tuple keys are hashed; equal hashes (genuine 32-bit collisions)
        share one postings run.  Within a key, postings keep the source
        append order.
        """
        postings = index._postings
        run_lengths = np.fromiter(
            map(len, postings.values()), dtype=np.int64, count=len(postings)
        )
        # An interval is a (doc, u, v) tuple: chaining twice reads every
        # posting of every key off as one flat int64 run.
        rows = np.fromiter(
            chain.from_iterable(chain.from_iterable(postings.values())),
            dtype=np.int64,
            count=3 * int(run_lengths.sum()),
        ).reshape(-1, 3)
        docs, us, vs = rows.T
        return cls._assembled(
            index,
            np.repeat(signature_hashes(list(postings)), run_lengths),
            docs,
            us,
            vs - us,
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
        block under local ids and is shifted by its offset.  Postings of
        the doc ids in ``removed`` (output ids) are dropped.

        Postings are ``(doc, u, v)`` triples under one global order, so
        no signature is generated again: a stable sort of the
        concatenated postings by key keeps, within a key, part order and
        then each part's append order — the order a serial build over
        the same documents appends in.  Absent a 32-bit hash collision
        the columns equal :meth:`from_index` of that build (a collision
        only permutes postings within the shared key).  Every part's keys
        are ``uint32``, so the concatenated key column stays ``uint32``.
        ``num_windows`` and ``build_stats`` are summed over the parts, so
        they still count the work spent on documents dropped here.
        """
        docs = np.concatenate(
            [p._docs.astype(np.int64) + base for p, base in parts]
        )
        keep = ~np.isin(docs, np.fromiter(removed, dtype=np.int64))
        build_stats: dict[str, int] = {}
        for part, _ in parts:
            for name, value in part.build_stats.items():
                build_stats[name] = build_stats.get(name, 0) + value
        return cls._assembled(
            parts[0][0],
            np.concatenate([np.repeat(p._keys, p._counts) for p, _ in parts])[keep],
            docs[keep],
            np.concatenate([p._us for p, _ in parts])[keep],
            np.concatenate([p._lens for p, _ in parts])[keep],
            num_documents=sum(p.num_documents for p, _ in parts),
            num_windows=sum(p.num_windows for p, _ in parts),
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
            counts=arrays["counts"],
            docs=arrays["docs"],
            us=arrays["us"],
            lens=arrays["lens"],
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
            "counts": self._counts,
            "docs": self._docs,
            "us": self._us,
            "lens": self._lens,
        }
        return meta, arrays

    # ------------------------------------------------------------------
    # Probe contract (mirrors IntervalIndex)
    # ------------------------------------------------------------------
    def _run_slots(self, signatures: Sequence[Signature]) -> np.ndarray:
        """Key-column position of each signature's postings run.

        A signature the index does not hold gets slot ``len(keys)``,
        whose run ``[offsets[-1], offsets[-1])`` is empty.
        """
        keys = self._keys
        hashes = signature_hashes(signatures)
        slots = np.searchsorted(keys, hashes)
        held = slots < len(keys)
        held[held] = keys[slots[held]] == hashes[held]
        slots[~held] = len(keys)
        return slots

    def probe_many(
        self,
        signatures: Sequence[Signature],
        signs: Sequence[int] | None = None,
    ) -> ProbeBatch:
        """Resolve a whole batch of signatures with one vectorized gather.

        Three steps, none of which writes to the index: hash the batch
        (:func:`~repro.signatures.generate.signature_hashes`), find
        every hash with one ``np.searchsorted`` over the sorted key
        column, and gather all hit postings runs out of the flat columns
        with one fancy-indexing pass — no per-posting Python work at
        all.  The gathered columns are int32 or wider whatever width
        they are stored at, so a caller may shift ids by a tier's base
        or add ``w`` to a window start; each window end is its start
        plus its stored length.  Hit order matches the dict
        index: signature order, postings append order within a
        signature.  ``signs`` carries the per-signature +1/-1 candidate
        delta (omitted = all +1).
        """
        n = len(signatures)
        if n == 0:
            return ProbeBatch.empty()
        slots = self._run_slots(signatures)
        offsets = self._offsets
        # int64 from here on: a run count summed over tiers must not wrap.
        # A missed slot ends where it starts, at the last offset: the
        # offsets column is read in place, never copied.
        starts = offsets[slots].astype(np.int64)
        counts = offsets[np.minimum(slots + 1, len(self._keys))] - starts
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
        docs, us, lens = (
            _at_least_int32(column[take]) for column in (self._docs, self._us, self._lens)
        )
        return ProbeBatch(docs, us, us + lens, hit_signs, counts, probed=n)

    def __contains__(self, signature: Signature) -> bool:
        return bool(self._run_slots([signature])[0] < len(self._keys))

    # ------------------------------------------------------------------
    # Mutation is refused — the structure is frozen by design.
    # ------------------------------------------------------------------
    def index_document(self, doc_id: int, ranks: Sequence[int]) -> None:
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

    def postings_lengths(self) -> np.ndarray:
        """Every key's postings-run length: the stored counts column."""
        return self._counts

    def nbytes(self) -> int:
        """Bytes held by the five stored columns (the mmap-able payload)."""
        return sum(
            column.nbytes
            for column in (self._keys, self._counts, self._docs, self._us, self._lens)
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
    threads may read one instance.  Read-only: a live memtable appends
    to its own growing column
    (:class:`~repro.ingest.memtable.RankColumn`), which readers read
    through these same methods.
    """

    def __init__(self, offsets: np.ndarray, values: np.ndarray) -> None:
        if len(offsets) == 0:
            raise IndexStateError("offsets column must have at least 1 entry")
        self._offsets = offsets
        self._values = values

    @classmethod
    def from_lists(cls, rank_docs: Sequence[Sequence[int]]) -> "PackedRankDocs":
        offsets = np.zeros(len(rank_docs) + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, rank_docs), dtype=np.int64, count=len(rank_docs)),
            out=offsets[1:],
        )
        values = np.fromiter(
            chain.from_iterable(rank_docs), dtype=np.int64, count=int(offsets[-1])
        )
        return cls(_packed_column(offsets), _packed_column(values))

    @classmethod
    def concatenated(
        cls, parts: Sequence["PackedRankDocs"], removed: Iterable[int] = ()
    ) -> "PackedRankDocs":
        """Rank columns of consecutive tiers as one — the fold's companion
        to :meth:`CompactIntervalIndex.merged`.

        Each doc id in ``removed`` (output ids) keeps its slot with an
        empty run.  Columns are sliced directly: no document is decoded.
        """
        lengths = np.concatenate([np.diff(p._offsets) for p in parts])
        values = np.concatenate([p._values for p in parts])
        dropped = np.zeros(len(lengths), dtype=bool)
        dropped[np.fromiter(removed, dtype=np.int64)] = True
        values = values[~np.repeat(dropped, lengths)]
        lengths[dropped] = 0
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(_packed_column(offsets), _packed_column(values))

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The stored columns: each document's length, at the narrowest
        width (one byte or two where offsets took four), and the values."""
        return {"lengths": _packed_column(np.diff(self._offsets)), "values": self._values}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "PackedRankDocs":
        """Over stored columns: the int64 offsets are derived once, by one
        cumsum of the lengths; the values are used as they are (mapped)."""
        lengths, values = arrays["lengths"], arrays["values"]
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        if offsets.item(-1) != len(values):
            raise IndexStateError(
                f"document lengths sum to {offsets.item(-1)} for {len(values)} ranks"
            )
        return cls(offsets, values)

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, doc_id: int) -> list[int]:
        if isinstance(doc_id, slice):
            return [self[i] for i in range(*doc_id.indices(len(self)))]
        if doc_id < 0:
            doc_id += len(self)
        if not 0 <= doc_id < len(self):
            raise IndexError(f"doc_id {doc_id} out of range")
        return self.doc_ranks(doc_id).tolist()

    def docs_from(self, first: int) -> "PackedRankDocs":
        """Documents ``first`` on as a column of their own (ids from 0),
        over a view of this one's values: what a catch-up indexes and a
        routed query fingerprints of a grown memtable."""
        offsets = self._offsets[first:]
        start = offsets.item(0)
        return PackedRankDocs(offsets - start, self._values[start:])

    def doc_ranks(self, doc_id: int) -> np.ndarray:
        """Document ``doc_id``'s run of the values column, as the array
        view itself (no list): what a snapshot's document view maps back
        to token ids.  ``doc_id`` is not checked."""
        offsets = self._offsets
        return self._values[offsets.item(doc_id) : offsets.item(doc_id + 1)]

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

    def lengths(self) -> list[int]:
        """Every document's length from the offsets column alone."""
        return np.diff(self._offsets).tolist()

    def __repr__(self) -> str:
        return (
            f"PackedRankDocs(docs={len(self)}, tokens={len(self._values)}, "
            f"bytes={self._offsets.nbytes + self._values.nbytes})"
        )
