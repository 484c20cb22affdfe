"""Saving and loading built searchers.

Index construction (and especially greedy partitioning) is the
expensive, offline part of the pipeline; production deployments build
once and serve many queries.  This module persists a fully built
:class:`~repro.core.pkwise.PKWiseSearcher` — frozen onto its compact
array-backed structures — to a single file.

There is one on-disk layout, shared by index snapshots, the ingest
``MANIFEST`` and the parallel executor's run checkpoints
(:func:`write_envelope` / :func:`read_envelope`): a 16-byte magic, an
8-byte little-endian TOC length, a pickled TOC, then each section's raw
bytes at a 64-byte aligned offset.  Small sections (params, order,
scheme, the collection header, checkpoint records) are pickled; a
snapshot's index and rank columns are stored as raw typed arrays, so
``load_bundle(path, mmap=True)`` maps them with ``mmap`` +
``np.frombuffer`` without copying — workers sharing one snapshot share
one page cache.  A snapshot holds its corpus once: the rank columns
are the documents (the global order is a bijection), so ``data`` is a
header — tokenizer, vocabulary, names — and the loaded collection reads
tokens back through the ranks.  A header holds only what a reader uses,
each per-token table once: the vocabulary pickles its tokens and the
header the document names as one joined string and a narrow length
column each (the lists are split from them on load), the order one
narrow integer array (token of rank; the window frequencies that chose
it are not kept), and each rebuilds its inverse on load; a live-store
segment stores no order at all (its ``MANIFEST`` holds the store's one
copy).  Every section, pickled or raw, carries a BLAKE2b payload digest
in the TOC, so a flipped bit on disk surfaces as a typed
:class:`PersistenceError` naming the corrupt section — never a pickle
error or silently wrong data.

Pickle is appropriate for the TOC and the small sections because an
index file is a local artifact produced by the same trust domain that
loads it; never load index files from untrusted sources.  A file that
does not start with the magic is rejected before a byte of it is
unpickled: snapshots written by pre-2.0 releases are not migrated —
rebuild them with ``repro index``.

:func:`save_searcher` can additionally keep rotated snapshot
generations (``index.idx.1``, ``index.idx.2``, ...); :func:`load_bundle`
falls back to the newest intact generation when the primary is corrupt,
so a crash mid-deploy never leaves serving without an index.
"""

from __future__ import annotations

import hashlib
import mmap as mmap_module
import os
import pickle
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import faults
from .core.pkwise import PKWiseSearcher
from .corpus import DocumentCollection
from .errors import ReproError
from .index.compact import CompactIntervalIndex, PackedRankDocs
from .routing import FingerprintTier
from .tokenize.vocabulary import joined_strings, split_strings

_MAGIC = b"repro-envelope-3"  # exactly 16 bytes
#: 4: a snapshot's "data" section is a header, not documents.  5: no
#: per-token table is stored beside its inverse, and a live-store
#: segment stores no order (its ``MANIFEST`` holds the one copy).  6:
#: signature-hash keys are ``uint32`` (the paper's 4 bytes), not 8 bytes.
#: 7: the global order pickles its tables as narrow integer arrays, not
#: int lists, and holds no vocabulary.  8: it stores its lazily admitted
#: tokens as such a column too, not a dict.  9: the index stores each
#: key's run count and each interval's length (``index.counts``,
#: ``index.lens``), not run offsets and interval ends, and an integer
#: column may be int8.  10: the order stores no window-frequency table,
#: the vocabulary and the document names are each one joined string and
#: a length column, and the rank column stores each document's length
#: (``ranks.lengths``), not offsets.
_TOC_VERSION = 10
_HEAD_SIZE = len(_MAGIC) + 8  # magic + TOC length
_ALIGN = 64
_INDEX_KIND = "pkwise-index"
_DIGEST_SIZE = 16


class PersistenceError(ReproError):
    """The file is missing, corrupt, or from another format version."""


def _digest(payload) -> str:
    return hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).hexdigest()


def _atomic_write(path: Path, serialize) -> None:
    """Write through a unique temp file, fsync, rename over ``path``.

    ``serialize(handle)`` does the actual dump; concurrent writers to
    the same ``path`` never clobber each other's half-written bytes and
    a failed dump leaves no temp file behind.
    """
    fd, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    temp_path = Path(temp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            serialize(handle)
            handle.flush()
            os.fsync(handle.fileno())
        temp_path.replace(path)
    finally:
        temp_path.unlink(missing_ok=True)


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def write_envelope(
    path: str | Path,
    kind: str,
    sections: dict,
    arrays: dict | None = None,
    header: dict | None = None,
) -> None:
    """Atomically write a checksummed envelope (pickled + raw sections).

    ``sections`` values are pickled independently; ``arrays`` values
    are numpy arrays stored as raw bytes at 64-byte-aligned offsets
    (dtype and shape recorded in the TOC) so readers can map them
    zero-copy.  Every payload — pickled or raw — carries a BLAKE2b
    digest in the TOC.  ``header`` is a small plain-data dict readable
    without touching any section payload.  ``kind`` names the
    envelope's schema (index file, workload checkpoint, ingest
    manifest) and is verified on read.
    """
    path = Path(path)
    toc: dict = {
        "version": _TOC_VERSION,
        "kind": kind,
        "header": dict(header or {}),
        "pickled": {},
        "arrays": {},
    }
    entries: list[tuple[int, bytes]] = []
    rel = 0

    def place(group: str, name: str, blob: bytes, **extra) -> None:
        nonlocal rel
        blob = faults.inject_bytes("persistence.write", blob, section=name, kind=kind)
        rel = _align(rel)
        toc[group][name] = {
            "offset": rel,
            "length": len(blob),
            "digest": _digest(blob),
            **extra,
        }
        entries.append((rel, blob))
        rel += len(blob)

    for name, obj in sections.items():
        place("pickled", name, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    for name, array in (arrays or {}).items():
        array = np.ascontiguousarray(array)
        place(
            "arrays", name, array.tobytes(),
            dtype=array.dtype.str, shape=tuple(array.shape),
        )
    toc_bytes = pickle.dumps(toc, protocol=pickle.HIGHEST_PROTOCOL)
    data_start = _align(_HEAD_SIZE + len(toc_bytes))

    def serialize(handle) -> None:
        handle.write(_MAGIC)
        handle.write(len(toc_bytes).to_bytes(8, "little"))
        handle.write(toc_bytes)
        position = _HEAD_SIZE + len(toc_bytes)
        for rel_offset, blob in entries:
            target = data_start + rel_offset
            if target > position:
                handle.write(b"\x00" * (target - position))
            handle.write(blob)
            position = target + len(blob)

    _atomic_write(path, serialize)


def _open_envelope(path: Path, kind: str):
    if not path.exists():
        raise PersistenceError(f"{kind} file {path} does not exist")
    return open(path, "rb")


def _read_toc(handle, path: Path, kind: str) -> tuple[dict, int]:
    """``(toc, its length)`` from an envelope opened at byte 0."""
    if handle.read(len(_MAGIC)) != _MAGIC:
        raise PersistenceError(
            f"{path} is not a repro 2.0 {kind} file; files written by "
            f"1.x releases are not migrated — rebuild it with this "
            f"release (repro index / repro ingest)"
        )
    try:
        toc_length = int.from_bytes(handle.read(8), "little")
        toc = pickle.loads(handle.read(toc_length))
    except Exception as exc:
        raise PersistenceError(
            f"cannot read {kind} file {path}: malformed TOC: {exc}"
        ) from exc
    if not isinstance(toc, dict):
        raise PersistenceError(f"cannot read {kind} file {path}: malformed TOC")
    return toc, toc_length


def read_toc(path: str | Path) -> dict:
    """The TOC of the envelope at ``path`` — ``version``, ``kind``,
    ``header`` and each section's entry — read without a byte of any
    section, whatever its format version."""
    path = Path(path)
    with _open_envelope(path, "envelope") as handle:
        return _read_toc(handle, path, "envelope")[0]


def is_current_envelope(path: str | Path) -> bool:
    """True when ``path`` is an envelope at this release's format
    version (only its TOC is read)."""
    try:
        return read_toc(path).get("version") == _TOC_VERSION
    except PersistenceError:
        return False


def read_envelope(
    path: str | Path, kind: str, *, mmap: bool = False
) -> tuple[dict, dict, dict]:
    """Load ``(header, sections, arrays)`` from a checksummed envelope.

    With ``mmap=True`` the file is memory-mapped and every array in
    ``arrays`` is a read-only view into the mapping (zero copy); the
    mapping stays alive for as long as any returned array does (numpy
    holds the buffer via ``.base``).  With ``mmap=False`` the file is
    read once into memory and arrays view that buffer.  In both modes
    every section's bytes are verified against their recorded BLAKE2b
    digest before use.

    Every failure mode is a typed :class:`PersistenceError`: missing
    file, a file without the magic (anything written before 2.0 —
    rejected without unpickling it), malformed TOC, wrong kind,
    truncation, and a section whose bytes no longer match their digest
    (the error names the corrupt section).
    """
    path = Path(path)
    with _open_envelope(path, kind) as handle:
        toc, toc_length = _read_toc(handle, path, kind)
        if toc.get("version") != _TOC_VERSION:
            raise PersistenceError(
                f"{kind} file {path} has format version "
                f"{toc.get('version')!r}, not {_TOC_VERSION} — rebuild the file"
            )
        if toc.get("kind") != kind:
            raise PersistenceError(
                f"{path} is a {toc.get('kind')!r} envelope, not {kind!r}"
            )
        data_start = _align(_HEAD_SIZE + toc_length)
        if mmap:
            buffer: memoryview | bytes = memoryview(
                mmap_module.mmap(handle.fileno(), 0, access=mmap_module.ACCESS_READ)
            )
        else:
            handle.seek(0)
            buffer = handle.read()

    def corrupt(name: str) -> PersistenceError:
        return PersistenceError(
            f"{kind} file {path}: section {name!r} is corrupt "
            f"(payload checksum mismatch) — restore from a snapshot "
            f"or rebuild"
        )

    def span(name: str, entry: dict) -> tuple[int, int]:
        start = data_start + entry["offset"]
        end = start + entry["length"]
        if end > len(buffer):
            raise PersistenceError(
                f"{kind} file {path}: section {name!r} is truncated"
            )
        return start, end

    sections: dict = {}
    for name, entry in toc.get("pickled", {}).items():
        start, end = span(name, entry)
        blob = faults.inject_bytes(
            "persistence.read", bytes(buffer[start:end]), section=name, kind=kind
        )
        if _digest(blob) != entry.get("digest"):
            raise corrupt(name)
        try:
            sections[name] = pickle.loads(blob)
        except Exception as exc:  # digest matched but payload won't load
            raise PersistenceError(
                f"{kind} file {path}: section {name!r} cannot be "
                f"deserialized: {exc}"
            ) from exc
    arrays: dict = {}
    for name, entry in toc.get("arrays", {}).items():
        start, end = span(name, entry)
        if _digest(buffer[start:end]) != entry.get("digest"):
            raise corrupt(name)
        dtype = np.dtype(entry["dtype"])
        arrays[name] = np.frombuffer(
            buffer, dtype=dtype, count=entry["length"] // dtype.itemsize,
            offset=start,
        ).reshape(entry["shape"])
    return toc.get("header", {}), sections, arrays


def rotated_paths(path: str | Path, generations: int) -> list[Path]:
    """``[path.1, path.2, ...]`` up to ``generations`` entries."""
    path = Path(path)
    return [
        path.with_name(f"{path.name}.{generation}")
        for generation in range(1, generations + 1)
    ]


def generation_name(stem: str, generation: int, suffix: str = ".idx") -> str:
    """Canonical file name for snapshot ``generation`` of ``stem``.

    Sharded serving writes each shard generation to its own immutable
    file (``shard-003.g000002.idx``) instead of rotating one path in
    place: a rolling swap maps the new generation while the old one is
    still being served, then drops the old mapping.  Zero-padding keeps
    lexicographic and numeric order identical for directory listings.
    """
    if generation < 1:
        raise ValueError(f"generation must be >= 1, got {generation}")
    return f"{stem}.g{generation:06d}{suffix}"


def _rotate_snapshots(path: Path, keep: int) -> None:
    """Shift ``path`` → ``path.1`` → ... → ``path.keep`` (drop oldest)."""
    if keep < 1 or not path.exists():
        return
    generations = rotated_paths(path, keep)
    if generations[-1].exists():
        generations[-1].unlink()
    for older, newer in zip(reversed(generations[1:]), reversed(generations[:-1])):
        if newer.exists():
            newer.replace(older)
    path.replace(generations[0])


@dataclass
class SearcherBundle:
    """A loaded searcher plus its document collection and provenance."""

    #: The frozen query engine.
    searcher: PKWiseSearcher
    #: The bundled :class:`~repro.corpus.DocumentCollection` (its documents a
    #: view over the searcher's rank columns), or None for ids-only
    #: index files.
    data: object = None
    #: The file that actually loaded (a rotated sibling after a fallback).
    path: Path | None = None
    #: Wall-clock seconds spent deserializing.
    load_seconds: float = 0.0


def save_searcher(
    searcher: PKWiseSearcher,
    path: str | Path,
    data=None,
    *,
    rotate: int = 0,
) -> None:
    """Write ``searcher``'s snapshot to ``path`` (atomic).

    A built or opened searcher is frozen already; a live one is folded
    into one frozen searcher first
    (:meth:`~repro.core.pkwise.PKWiseSearcher.compacted`). Its index/rank
    columns are stored as raw typed arrays, so :func:`load_bundle` can map
    them.  Only :class:`~repro.core.pkwise.PKWiseSearcher` (and its live LSM
    view) can be snapshotted; anything else is a typed
    :class:`PersistenceError`.

    Pass the :class:`~repro.corpus.DocumentCollection` as ``data`` to bundle
    the documents (needed to encode text queries and to decode matches
    back to text, e.g. by the CLI); omit it for a leaner, ids-only
    index file that holds no vocabulary at all (what a shard plan's
    files are: the router encodes).  The corpus is stored once: the file keeps the
    collection's *header* — tokenizer, vocabulary, names — and reads the
    tokens back from the rank columns (the global order is a
    bijection).  ``data`` must therefore be the searcher's own
    collection: a different document count, or a document whose length
    disagrees with its rank column, is a :class:`PersistenceError`
    naming the first such doc id.

    A searcher whose ``order`` is None is a live-store segment: its
    store's ``MANIFEST`` holds the one order, so the file stores none
    and :func:`load_bundle` is handed it back (``order=``).

    ``rotate=N`` keeps the previous N snapshot generations as
    ``path.1`` (newest) through ``path.N`` (oldest) before writing the
    new file; :func:`load_bundle` automatically falls back to the
    newest intact generation when the primary fails its checksum.
    """
    if not isinstance(searcher, PKWiseSearcher):
        raise PersistenceError(
            f"snapshots hold a PKWiseSearcher, got {type(searcher).__name__}"
        )
    path = Path(path)
    frozen = searcher.compacted()
    params = frozen.params
    index_meta, index_arrays = frozen.index.to_arrays()
    meta = {
        "params": params,
        "index": index_meta,
        "removed": sorted(frozen._removed),
        "index_epoch": frozen.index_epoch,
        "build_seconds": frozen.index_build_seconds,
    }
    arrays = {f"index.{name}": array for name, array in index_arrays.items()}
    arrays.update(
        {
            f"ranks.{name}": array
            for name, array in frozen.rank_docs.to_arrays().items()
        }
    )
    if params.routing.enabled:
        # Fingerprints ride in their own section so reopened snapshots
        # (and the shard workers mmapping them) route without decoding
        # a single rank column; the meta entry says they are there.
        tier = frozen.routing_fingerprints()
        meta["routing"] = {}
        arrays.update(
            {f"routing.{name}": array for name, array in tier.to_arrays().items()}
        )
    sections = {
        "meta": meta,
        "order": frozen.order,
        "scheme": frozen.scheme,
        "data": None,
    }
    if data is not None:
        sections["data"] = _collection_header(data, frozen.rank_docs)
    if rotate:
        _rotate_snapshots(path, rotate)
    write_envelope(
        path,
        _INDEX_KIND,
        sections,
        arrays,
        header={
            "params": {
                "w": params.w,
                "tau": params.tau,
                "k_max": params.k_max,
                "m": params.m,
            },
        },
    )


def _collection_header(data: DocumentCollection, rank_docs) -> dict:
    """What a snapshot keeps of ``data`` — everything but the tokens,
    which ``rank_docs`` already holds.  Refuses a collection that is not
    the one ``rank_docs`` ranks (O(documents), nothing decoded)."""
    lengths = data.lengths()
    ranked = rank_docs.lengths()
    if len(lengths) != len(ranked):
        raise PersistenceError(
            f"data has {len(lengths)} documents, the searcher ranks "
            f"{len(ranked)}: doc id {min(len(lengths), len(ranked))} is "
            f"in one and not the other — pass the searcher's own collection"
        )
    for doc_id, (length, rank_length) in enumerate(zip(lengths, ranked)):
        # A compaction purges a tombstoned document down to an empty run.
        if rank_length not in (length, 0):
            raise PersistenceError(
                f"data document {doc_id} has {length} tokens, the searcher "
                f"ranks {rank_length} for that id — pass the searcher's own "
                f"collection"
            )
    return {
        "tokenizer": data.tokenizer,
        "vocabulary": data.vocabulary,
        "names": joined_strings(data.names()),
    }


def _load_snapshot(
    path: Path, *, mmap: bool, order=None
) -> tuple[PKWiseSearcher, object]:
    """``(searcher, data)`` from one snapshot file; ``order`` is the
    global order of a file that stores none (a live-store segment)."""
    _header, sections, arrays = read_envelope(path, _INDEX_KIND, mmap=mmap)
    meta = sections.get("meta")
    if not isinstance(meta, dict):
        raise PersistenceError(f"{path} does not contain a compact searcher")

    def columns(prefix: str) -> dict:
        return {
            name[len(prefix):]: array
            for name, array in arrays.items()
            if name.startswith(prefix)
        }

    try:
        if "routing" in meta:
            routing_tier = FingerprintTier.from_arrays(columns("routing."))
        else:
            # Saved without fingerprints: a routed query against this
            # snapshot raises RoutingUnavailableError instead of
            # silently decoding every rank column to build them.
            routing_tier = None
        header = sections.get("data")
        if sections["order"] is not None:
            order = sections["order"]
        elif order is None:
            raise PersistenceError(
                f"{path} is a live-store segment: its global order is in "
                f"the store's MANIFEST — open the store's directory with "
                f"Index.open_live"
            )
        rank_docs = PackedRankDocs.from_arrays(columns("ranks."))
        data = None
        if header is not None:
            data = DocumentCollection.over_columns(
                header["tokenizer"], header["vocabulary"],
                rank_docs, order.token_table(), split_strings(header["names"]),
            )
        searcher = PKWiseSearcher.from_prebuilt(
            meta["params"],
            order,
            sections["scheme"],
            CompactIntervalIndex.from_arrays(
                meta["index"], sections["scheme"], columns("index.")
            ),
            rank_docs,
            build_seconds=meta.get("build_seconds", 0.0),
            removed=meta.get("removed", ()),
            index_epoch=meta.get("index_epoch", 0),
            routing_tier=routing_tier,
        )
    except KeyError as exc:
        raise PersistenceError(
            f"{path}: snapshot is missing section {exc}"
        ) from exc
    return searcher, data


def load_bundle(
    path: str | Path, *, fallback: bool = True, mmap: bool = False, order=None
) -> SearcherBundle:
    """Load a :class:`SearcherBundle` saved by :func:`save_searcher`.

    ``mmap=True`` memory-maps the snapshot's array columns instead of
    copying them.  With ``fallback=True`` (default) a corrupt or
    missing primary file falls back to the newest intact rotated
    snapshot (``path.1``, ``path.2``, ...) when one exists, with a
    :class:`RuntimeWarning` naming both files; the primary's error is
    re-raised when no candidate loads.  The bundle's ``path`` records
    the file that actually loaded; ``data`` is None for ids-only files.
    ``order`` is the global order of a live-store segment, whose file
    stores none (its store's ``MANIFEST`` does); without it such a file
    raises a :class:`PersistenceError` naming ``Index.open_live``.

    SECURITY: this unpickles parts of the file — only load files you
    (or your pipeline) wrote.
    """
    path = Path(path)
    start = time.perf_counter()
    candidates = [path]
    while (
        fallback
        and (sibling := path.with_name(f"{path.name}.{len(candidates)}")).exists()
    ):
        candidates.append(sibling)
    primary_error: PersistenceError | None = None
    for candidate in candidates:
        try:
            searcher, data = _load_snapshot(candidate, mmap=mmap, order=order)
        except PersistenceError as exc:
            if primary_error is None:
                primary_error = exc
            continue
        if candidate is not path:
            warnings.warn(
                f"index file {path} is unreadable ({primary_error}); "
                f"fell back to rotated snapshot {candidate}",
                RuntimeWarning,
                stacklevel=2,
            )
        return SearcherBundle(
            searcher, data, candidate, time.perf_counter() - start
        )
    raise primary_error
