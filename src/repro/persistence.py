"""Saving and loading built searchers.

Index construction (and especially greedy partitioning) is the
expensive, offline part of the pipeline; production deployments build
once and serve many queries.  This module persists a fully built
:class:`~repro.core.pkwise.PKWiseSearcher` — frozen onto its compact
array-backed structures — to a single file.

There is one on-disk layout, shared by index snapshots, live-store
segments, shard files, the ingest ``MANIFEST`` and the parallel
executor's run checkpoints (:func:`write_envelope` /
:func:`read_envelope`): a 16-byte magic, an 8-byte little-endian TOC
length, the TOC — UTF-8 JSON of at most :data:`_TOC_MAX` bytes —
followed by its own BLAKE2b digest, then each section's bytes at a
64-byte aligned offset.  The TOC names the release that wrote it, the
envelope's kind, a small header and each section's offset, length and
digest.  A section is one of two things and nothing else:

* a raw integer column, its dtype and shape in the TOC (their product
  must be the stored length), which ``load_bundle(path, mmap=True)``
  maps with ``mmap`` + ``np.frombuffer`` without copying — workers
  sharing one snapshot share one page cache;
* JSON: the params, the scheme, the index's counts, the tokenizer,
  checkpoint records (each class's ``to_dict`` / ``from_dict``).

Nothing in a file is unpickled, so a file is data whoever wrote it.  A
snapshot holds its corpus once: the rank columns are the documents (the
global order is a bijection), so its collection is a header — the
tokenizer, and the vocabulary and the document names each as their
UTF-8 bytes and a narrow length column — and the loaded collection
reads tokens back through the ranks.  The order is its two integer
columns (token of rank, lazily admitted ids); a live-store segment
stores no order and no vocabulary (its ``MANIFEST`` holds the store's
one copy).

Every section carries a BLAKE2b payload digest in the TOC, and the TOC
its own, so a flipped bit surfaces as a typed :class:`PersistenceError`
naming the section or the TOC.  A snapshot's columns are then checked
once, on open, for what the search kernels assume of them (keys
sorted, postings inside their documents, ranks inside the order, ...):
a file with valid digests but impossible contents is refused with an
error naming the section, never answered wrongly.  A file with the
magic of 4.1 and before (a pickled TOC) is refused on its magic alone,
without a byte of its TOC run: rebuild it with ``repro index``.

:func:`save_searcher` can additionally keep rotated snapshot
generations (``index.idx.1``, ``index.idx.2``, ...); :func:`load_bundle`
falls back to the newest intact generation when the primary is corrupt,
so a crash mid-deploy never leaves serving without an index.
"""

from __future__ import annotations

import hashlib
import json
import mmap as mmap_module
import os
import tempfile
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from pickletools import genops

import numpy as np

from . import faults
from .core.pkwise import PKWiseSearcher
from .corpus import DocumentCollection
from .errors import ReproError
from .index.compact import CompactIntervalIndex, PackedRankDocs
from .ordering import GlobalOrder
from .params import SearchParams
from .partition.scheme import PartitionScheme
from .tokenize import Tokenizer, Vocabulary
from .tokenize.vocabulary import split_strings, string_columns

_MAGIC = b"repro-envelope-4"  # exactly 16 bytes
#: The magic of envelope versions 3–10 (repro 2.0–4.1), whose TOC was a
#: pickle: such a file is refused on its magic, its TOC never run.
_OLD_MAGIC = b"repro-envelope-3"
#: 11: the TOC is digested JSON naming its writer, and every section is
#: JSON or a raw integer column; the order is two columns, the
#: vocabulary and the names UTF-8 bytes and a length column each.
_TOC_VERSION = 11
#: Most bytes a TOC may take: a reader allocates no more for it.
_TOC_MAX = 1 << 20
_HEAD_SIZE = len(_MAGIC) + 8  # magic + TOC length
_ALIGN = 64
_INDEX_KIND = "pkwise-index"
_DIGEST_SIZE = 16


class PersistenceError(ReproError):
    """The file is missing, corrupt, or from another format version."""


def _digest(payload) -> str:
    return hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).hexdigest()


def _json_bytes(value) -> bytes:
    """``value`` as a JSON section or TOC stores it, compact."""
    return json.dumps(value, separators=(",", ":")).encode()


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
    """Atomically write a checksummed envelope (JSON + raw sections).

    ``sections`` values are stored as JSON each; ``arrays`` values are
    integer numpy arrays stored as raw bytes at 64-byte-aligned offsets
    (dtype and shape recorded in the TOC) so readers can map them
    zero-copy.  Every payload carries a BLAKE2b digest in the TOC, and
    the TOC its own.  ``header`` is a small JSON dict readable without
    touching any section payload.  ``kind`` names the envelope's schema
    (index file, workload checkpoint, ingest manifest) and is verified
    on read.
    """
    from . import __version__

    path = Path(path)
    toc: dict = {
        "version": _TOC_VERSION,
        "writer": f"repro {__version__}",
        "kind": kind,
        "header": dict(header or {}),
        "json": {},
        "arrays": {},
    }
    entries: list[tuple[int, bytes]] = []
    rel = 0

    def place(group: str, name: str, blob: bytes, **extra) -> None:
        nonlocal rel
        blob = faults.inject_bytes("persistence.write", blob, section=name, kind=kind)
        if blob:  # an empty section has no bytes to align
            rel = _align(rel)
        toc[group][name] = {
            "offset": rel,
            "length": len(blob),
            "digest": _digest(blob),
            **extra,
        }
        entries.append((rel, blob))
        rel += len(blob)

    for name, value in sections.items():
        place("json", name, _json_bytes(value))
    for name, array in (arrays or {}).items():
        array = np.ascontiguousarray(array)
        if array.dtype.kind not in "iu":
            raise PersistenceError(
                f"section {name!r} is {array.dtype}: a file stores integer columns only"
            )
        place(
            "arrays", name, array.tobytes(),
            dtype=array.dtype.str, shape=list(array.shape),
        )
    toc_bytes = _json_bytes(toc)
    if len(toc_bytes) > _TOC_MAX:
        raise PersistenceError(
            f"{kind} TOC for {path} is {len(toc_bytes):,d} B, over {_TOC_MAX:,d}"
        )
    toc_end = _HEAD_SIZE + len(toc_bytes) + _DIGEST_SIZE
    data_start = _align(toc_end)

    def serialize(handle) -> None:
        handle.write(_MAGIC)
        handle.write(len(toc_bytes).to_bytes(8, "little"))
        handle.write(toc_bytes)
        handle.write(hashlib.blake2b(toc_bytes, digest_size=_DIGEST_SIZE).digest())
        position = toc_end
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


def _pickled_toc_version(handle):
    """The ``version`` an older envelope's pickled TOC holds, read with
    :func:`pickletools.genops` (which parses opcodes and runs none), or
    None.  ``handle`` is just past the magic."""
    toc_length = int.from_bytes(handle.read(8), "little")
    if toc_length > _TOC_MAX:
        return None
    ops = genops(handle.read(toc_length))
    try:
        for _opcode, arg, _at in ops:
            if arg == "version":
                for opcode, value, _at in ops:
                    if opcode.name != "MEMOIZE":
                        return value if isinstance(value, int) else None
    except ValueError:  # a torn or foreign pickle: no version to name
        return None
    return None


def _read_toc(handle, path: Path, kind: str) -> tuple[dict, int]:
    """``(toc, where the sections start)`` from an envelope opened at
    byte 0; an older envelope is refused on its magic."""
    magic = handle.read(len(_MAGIC))
    if magic == _OLD_MAGIC:
        version = _pickled_toc_version(handle)
        raise PersistenceError(
            f"{path} is a {kind} file of format version {version} (repro "
            f"4.1 or before), whose TOC is a pickle this release does not "
            f"read — rebuild the file"
        )
    if magic != _MAGIC:
        raise PersistenceError(
            f"{path} is not a repro {kind} file; files written by "
            f"1.x releases are not migrated — rebuild it with this "
            f"release (repro index / repro ingest)"
        )
    toc_length = int.from_bytes(handle.read(8), "little")
    if toc_length > _TOC_MAX:
        raise PersistenceError(
            f"cannot read {kind} file {path}: malformed TOC: its length "
            f"{toc_length:,d} B is over {_TOC_MAX:,d}"
        )
    toc_bytes = handle.read(toc_length)
    digest = handle.read(_DIGEST_SIZE)
    if len(toc_bytes) != toc_length or len(digest) != _DIGEST_SIZE:
        raise PersistenceError(f"cannot read {kind} file {path}: malformed TOC: truncated")
    if hashlib.blake2b(toc_bytes, digest_size=_DIGEST_SIZE).digest() != digest:
        raise PersistenceError(
            f"{kind} file {path}: the TOC is corrupt (checksum mismatch) — "
            f"restore from a snapshot or rebuild"
        )
    try:
        toc = json.loads(toc_bytes)
    except (ValueError, RecursionError) as exc:
        raise PersistenceError(
            f"cannot read {kind} file {path}: malformed TOC: {exc}"
        ) from exc
    if not (
        isinstance(toc, dict)
        and isinstance(toc.get("header"), dict)
        and all(isinstance(toc.get(group), dict) for group in ("json", "arrays"))
    ):
        raise PersistenceError(f"cannot read {kind} file {path}: malformed TOC")
    return toc, _align(_HEAD_SIZE + toc_length + _DIGEST_SIZE)


def read_toc(path: str | Path) -> dict:
    """The TOC of the envelope at ``path`` — ``version``, ``writer``,
    ``kind``, ``header`` and each section's entry — read without a byte
    of any section."""
    path = Path(path)
    with _open_envelope(path, "envelope") as handle:
        return _read_toc(handle, path, "envelope")[0]


def older_format_version(path: str | Path):
    """The format version of an envelope at ``path`` written by repro 4.1
    or before (its pickled TOC parsed, never run), or None."""
    path = Path(path)
    if not path.exists():
        return None
    with open(path, "rb") as handle:
        if handle.read(len(_OLD_MAGIC)) != _OLD_MAGIC:
            return None
        return _pickled_toc_version(handle)


def is_current_envelope(path: str | Path) -> bool:
    """True when ``path`` is an envelope at this release's format
    version (only its TOC is read)."""
    try:
        return read_toc(path).get("version") == _TOC_VERSION
    except PersistenceError:
        return False


def _array_view(buffer, start: int, entry: dict) -> np.ndarray:
    """The integer column an ``arrays`` TOC entry describes, viewed at
    ``start`` of ``buffer``; ``ValueError`` or ``TypeError`` when the
    entry does not describe one."""
    dtype = np.dtype(entry["dtype"])
    if dtype.kind not in "iu" or entry["length"] % dtype.itemsize:
        raise ValueError(f"{entry['length']} bytes of {dtype}")
    # The reshape refuses a shape whose size is not the stored length's.
    return np.frombuffer(
        buffer, dtype=dtype, count=entry["length"] // dtype.itemsize, offset=start,
    ).reshape(entry["shape"])


def read_envelope(
    path: str | Path, kind: str, *, mmap: bool = False
) -> tuple[dict, dict, dict]:
    """Load ``(header, sections, arrays)`` from a checksummed envelope.

    With ``mmap=True`` the file is memory-mapped and every array in
    ``arrays`` is a read-only view into the mapping (zero copy); the
    mapping stays alive for as long as any returned array does (numpy
    holds the buffer via ``.base``).  With ``mmap=False`` the file is
    read once into memory and arrays view that buffer.  In both modes
    the TOC and every section's bytes are verified against their
    recorded BLAKE2b digest before use.

    Every failure mode is a typed :class:`PersistenceError`: missing
    file, a file without this release's magic (an older one is refused
    by its magic, unread), a malformed or corrupt TOC, wrong kind or
    version, truncation, a section whose bytes no longer match their
    digest, and an array entry that is not an integer column of its
    stored length (the error names the section).
    """
    path = Path(path)
    with _open_envelope(path, kind) as handle:
        toc, data_start = _read_toc(handle, path, kind)
        if toc.get("version") != _TOC_VERSION:
            raise PersistenceError(
                f"{kind} file {path} has format version "
                f"{toc.get('version')!r}, written by {toc.get('writer')!r}, "
                f"not {_TOC_VERSION} — open it with that release, or "
                f"rebuild the file"
            )
        if toc.get("kind") != kind:
            raise PersistenceError(
                f"{path} is a {toc.get('kind')!r} envelope, not {kind!r}"
            )
        if mmap:
            buffer: memoryview | bytes = memoryview(
                mmap_module.mmap(handle.fileno(), 0, access=mmap_module.ACCESS_READ)
            )
        else:
            handle.seek(0)
            buffer = handle.read()

    def corrupt(name: str, problem: str) -> PersistenceError:
        return PersistenceError(f"{kind} file {path}: section {name!r} {problem}")

    def span(name: str, entry) -> tuple[int, int]:
        try:
            offset, length = entry["offset"], entry["length"]
            if not (isinstance(offset, int) and isinstance(length, int)
                    and offset >= 0 and length >= 0):
                raise TypeError(f"offset {offset!r}, length {length!r}")
        except (KeyError, TypeError) as exc:
            raise corrupt(name, f"has a malformed TOC entry: {exc}") from None
        start = data_start + offset
        end = start + length
        if end > len(buffer):
            raise corrupt(name, "is truncated")
        return start, end

    def checked(name: str, entry, payload):
        if _digest(payload) != entry.get("digest"):
            raise corrupt(
                name, "is corrupt (payload checksum mismatch) — restore from "
                "a snapshot or rebuild",
            )

    sections: dict = {}
    for name, entry in toc["json"].items():
        start, end = span(name, entry)
        blob = faults.inject_bytes(
            "persistence.read", bytes(buffer[start:end]), section=name, kind=kind
        )
        checked(name, entry, blob)
        try:
            sections[name] = json.loads(blob)
        except (ValueError, RecursionError) as exc:
            raise corrupt(name, f"cannot be decoded: {exc}") from exc
    arrays: dict = {}
    for name, entry in toc["arrays"].items():
        start, end = span(name, entry)
        checked(name, entry, buffer[start:end])
        try:
            arrays[name] = _array_view(buffer, start, entry)
        except (KeyError, TypeError, ValueError) as exc:
            raise corrupt(name, f"is not a stored integer column: {exc}") from None
    return toc["header"], sections, arrays


def rotated_paths(path: str | Path, generations: int) -> list[Path]:
    """``[path.1, path.2, ...]`` up to ``generations`` entries."""
    path = Path(path)
    return [
        path.with_name(f"{path.name}.{generation}")
        for generation in range(1, generations + 1)
    ]


def generation_name(stem: str, generation: int, suffix: str = ".idx") -> str:
    """Canonical file name for snapshot ``generation`` of ``stem``.

    A shard plan writes each shard generation to its own immutable file
    (``shard-003.g000002.idx``), and a live store each segment
    (``segment.g000004.idx``), instead of rewriting one path in place:
    a worker still mapping an older generation keeps serving it until
    it is restarted.  Zero-padding keeps lexicographic and numeric
    order identical for directory listings.
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
        "params": params.to_dict(),
        "index": index_meta,
        "removed": sorted(frozen._removed),
        "index_epoch": frozen.index_epoch,
        "build_seconds": frozen.index_build_seconds,
    }
    sections = {"meta": meta, "scheme": frozen.scheme.to_dict()}
    # The order's and the header's columns first: the corpus-sized ones
    # end the file.
    arrays = {}
    if frozen.order is not None:
        sections["order"], arrays = order_sections(frozen.order)
    if data is not None:
        _check_own_collection(data, frozen.rank_docs)
        sections["data"], header_arrays = header_sections(
            data.tokenizer, data.vocabulary, data.names()
        )
        arrays.update(header_arrays)
    arrays.update({f"index.{name}": array for name, array in index_arrays.items()})
    arrays.update(
        {
            f"ranks.{name}": array
            for name, array in frozen.rank_docs.to_arrays().items()
        }
    )
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


def _check_own_collection(data: DocumentCollection, rank_docs) -> None:
    """Refuse a collection that is not the one ``rank_docs`` ranks
    (O(documents), nothing decoded): a snapshot keeps all of ``data``
    but the tokens, which ``rank_docs`` already holds."""
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


def header_sections(tokenizer, vocabulary, names) -> tuple[dict, dict]:
    """A collection header as a file stores it: the ``data`` JSON
    section (the tokenizer) and the ``vocabulary.*`` and ``names.*``
    columns, UTF-8 bytes and a length column each.  ``vocabulary`` is a
    :class:`~repro.tokenize.Vocabulary` or an ingest store's prefix of
    one: whatever its ``to_arrays`` cuts."""
    arrays = {f"vocabulary.{name}": column for name, column in vocabulary.to_arrays().items()}
    arrays.update({f"names.{name}": column for name, column in string_columns(names).items()})
    return {"tokenizer": tokenizer.to_dict()}, arrays


def order_sections(order) -> tuple[dict, dict]:
    """A global order as a file stores it: the ``order`` JSON section
    and the ``order.*`` columns (a :class:`~repro.ordering.GlobalOrder`
    or an ingest store's prefix of one: whatever its ``to_arrays`` cuts)."""
    meta, columns = order.to_arrays()
    return meta, {f"order.{name}": column for name, column in columns.items()}


def _prefixed(arrays: dict, prefix: str) -> dict:
    return {
        name[len(prefix):]: array
        for name, array in arrays.items()
        if name.startswith(prefix)
    }


@contextmanager
def _decoding(path: Path, name: str):
    """Any error decoding section ``name`` of ``path`` as a
    :class:`PersistenceError` naming it."""
    try:
        yield
    except PersistenceError:
        raise
    except (ReproError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise PersistenceError(
            f"{path}: section {name!r} cannot be decoded: {exc!r}"
        ) from exc


def load_order(path: Path, sections: dict, arrays: dict) -> GlobalOrder:
    """The global order a file stores, its columns checked
    (:func:`_check_order`)."""
    columns = _prefixed(arrays, "order.")
    for name in ("token_of_rank", "admitted"):
        if name not in columns:
            raise PersistenceError(f"{path}: file is missing section 'order.{name}'")
    _check_order(path, columns)
    with _decoding(path, "order"):
        return GlobalOrder.from_arrays(sections["order"], columns)


def load_header(path: Path, sections: dict, arrays: dict, order: GlobalOrder) -> dict:
    """``{"tokenizer", "vocabulary", "names"}`` of a stored collection
    header, a :class:`~repro.tokenize.Tokenizer`, a
    :class:`~repro.tokenize.Vocabulary` holding a string for every id
    ``order`` ranks, and the names as a list."""
    with _decoding(path, "data"):
        tokenizer = Tokenizer.from_dict(sections["data"]["tokenizer"])
    with _decoding(path, "vocabulary.utf8"):
        vocabulary = Vocabulary.from_arrays(_prefixed(arrays, "vocabulary."))
    ranked = order.universe_size + order.num_admitted
    if len(vocabulary) < ranked:
        raise _refused(
            path, "vocabulary.lengths",
            f"holds {len(vocabulary)} tokens for the {ranked} ids the order ranks",
        )
    with _decoding(path, "names.utf8"):
        names = split_strings(_prefixed(arrays, "names."))
    return {"tokenizer": tokenizer, "vocabulary": vocabulary, "names": names}


def _load_snapshot(
    path: Path, *, mmap: bool, order=None
) -> tuple[PKWiseSearcher, object]:
    """``(searcher, data)`` from one snapshot file; ``order`` is the
    global order of a file that stores none (a live-store segment)."""
    _header, sections, arrays = read_envelope(path, _INDEX_KIND, mmap=mmap)
    meta = sections.get("meta")
    if not isinstance(meta, dict):
        raise PersistenceError(f"{path} does not contain a compact searcher")
    required = [
        "scheme", *(f"index.{name}" for name in CompactIntervalIndex.COLUMNS),
        "ranks.lengths", "ranks.values",
    ]
    for name in required:
        if name not in sections and name not in arrays:
            raise PersistenceError(f"{path}: snapshot is missing section {name!r}")
    check_dtypes(path, arrays)
    with _decoding(path, "meta"):
        params = SearchParams.from_dict(meta["params"])
        index_meta = meta["index"]
    with _decoding(path, "scheme"):
        scheme = PartitionScheme.from_dict(sections["scheme"])
    if "order" in sections:
        order = load_order(path, sections, arrays)
    elif order is None:
        raise PersistenceError(
            f"{path} is a live-store segment: its global order is in "
            f"the store's MANIFEST — open the store's directory with "
            f"Index.open_live"
        )
    ranks = _prefixed(arrays, "ranks.")
    _check_ranks(path, ranks, order)
    rank_docs = PackedRankDocs.from_arrays(ranks)
    doc_lengths = np.diff(rank_docs._offsets)
    index_columns = _prefixed(arrays, "index.")
    _check_index(path, index_columns, doc_lengths, params.w)
    data = None
    if "data" in sections:
        header = load_header(path, sections, arrays, order)
        with _decoding(path, "names.lengths"):
            data = DocumentCollection.over_columns(
                header["tokenizer"], header["vocabulary"],
                rank_docs, order.token_table(), header["names"],
            )
    with _decoding(path, "meta"):
        searcher = PKWiseSearcher.from_prebuilt(
            params,
            order,
            scheme,
            CompactIntervalIndex.from_arrays(index_meta, scheme, index_columns),
            rank_docs,
            build_seconds=meta.get("build_seconds", 0.0),
            removed=meta.get("removed", ()),
            index_epoch=meta.get("index_epoch", 0),
        )
    return searcher, data


# ----------------------------------------------------------------------
# Checks on open: what the kernels assume of the stored columns.  Each
# runs once, in array passes, when its section opens; a failure is a
# PersistenceError naming the section.
# ----------------------------------------------------------------------
#: Keys or postings one pass of a check reads at a time: its temporaries
#: stay a few hundred KB, and the loop is fastest near this size.
_CHECK_BLOCK = 1 << 14


#: The columns a reader takes -> their dtype, or None for a signed
#: integer column of any width.  Each is one-dimensional; a file may
#: hold others, unread (a 4.2.0 file's routing covers, which a routed
#: query builds from the rank column instead).
_READ_COLUMNS = {
    **{f"index.{name}": None for name in CompactIntervalIndex.COLUMNS},
    "index.keys": np.uint32,
    "ranks.lengths": None, "ranks.values": None,
    "order.token_of_rank": None, "order.admitted": None,
    "vocabulary.utf8": np.uint8, "vocabulary.lengths": None,
    "names.utf8": np.uint8, "names.lengths": None,
}


def _refused(path: Path, name: str, problem: str) -> PersistenceError:
    return PersistenceError(
        f"{path}: section {name!r} {problem} — the search kernels cannot "
        f"use it; rebuild the file"
    )


def check_dtypes(path: Path, arrays: dict) -> None:
    """Every column has the dtype and shape its readers take: the
    signature keys ``uint32``, the UTF-8 bytes ``uint8``, every other
    column a signed integer one, each one dimension."""
    for name, array in arrays.items():
        if name not in _READ_COLUMNS:
            continue
        want = _READ_COLUMNS[name]
        typed = array.dtype == want if want is not None else array.dtype.kind == "i"
        if not typed or array.ndim != 1:
            raise _refused(path, name, f"is a {array.ndim}-d {array.dtype} column")


def _holds_each_once(column: np.ndarray, start: int) -> bool:
    """True when ``column`` holds each of ``start .. start + len - 1`` once."""
    if not len(column):
        return True
    if column.min() < start or column.max() >= start + len(column):
        return False
    seen = np.zeros(len(column), dtype=bool)
    seen[column.astype(np.int64) - start] = True
    return bool(seen.all())


def _check_order(path: Path, columns: dict) -> None:
    """The order's token-of-rank column is a permutation of its ids, and
    its admitted column the ids after them, each once."""
    ranked, admitted = columns["token_of_rank"], columns["admitted"]
    if not _holds_each_once(ranked, 0):
        raise _refused(path, "order.token_of_rank", "is not a permutation of its ids")
    if not _holds_each_once(admitted, len(ranked)):
        end = len(ranked) + len(admitted)
        raise _refused(
            path, "order.admitted", f"is not the ids {len(ranked)}..{end - 1}, each once"
        )


def _check_ranks(path: Path, columns: dict, order: GlobalOrder) -> None:
    """Each document's length is >= 0 and they sum to the values; every
    value is a rank of ``order``, in ``[-num_admitted, universe_size)``."""
    lengths, values = columns["lengths"], columns["values"]
    if len(lengths) and lengths.min() < 0:
        raise _refused(path, "ranks.lengths", "holds a negative length")
    total = int(lengths.sum(dtype=np.int64))
    if total != len(values):
        raise _refused(path, "ranks.lengths", f"sums to {total} for {len(values)} ranks")
    lo, hi = -order.num_admitted, order.universe_size
    if len(values) and (values.min() < lo or values.max() >= hi):
        raise _refused(path, "ranks.values", f"holds a rank outside [{lo}, {hi})")


def _check_index(path: Path, columns: dict, doc_lengths: np.ndarray, w: int) -> None:
    """Keys strictly increase; run counts are >= 1 and sum to the
    postings; each posting's document is one of ``doc_lengths``', and
    its interval ``[u, u + len]`` of window starts lies inside it
    (``u >= 0``, ``len >= 0``, ``u + len + w <= length``)."""
    keys, counts = columns["keys"], columns["counts"]
    docs, us, lens = columns["docs"], columns["us"], columns["lens"]
    for lo in range(0, len(keys), _CHECK_BLOCK):
        block = keys[lo : lo + _CHECK_BLOCK + 1]
        if np.any(block[1:] <= block[:-1]):
            raise _refused(path, "index.keys", "is not strictly increasing")
    if len(counts) != len(keys):
        raise _refused(path, "index.counts", f"has {len(counts)} entries for {len(keys)} keys")
    if len(counts) and counts.min() < 1:
        raise _refused(path, "index.counts", "holds a run count below 1")
    total = int(counts.sum(dtype=np.int64))
    if not total == len(docs) == len(us) == len(lens):
        raise _refused(
            path, "index.counts",
            f"sums to {total} for postings columns of {len(docs)}, {len(us)} "
            f"and {len(lens)} entries",
        )
    if len(docs) and (docs.min() < 0 or docs.max() >= len(doc_lengths)):
        raise _refused(
            path, "index.docs", f"holds a document id outside [0, {len(doc_lengths)})"
        )
    if len(us) and us.min() < 0:
        raise _refused(path, "index.us", "holds a negative window start")
    if len(lens) and lens.min() < 0:
        raise _refused(path, "index.lens", "holds a negative interval length")
    for lo in range(0, len(docs), _CHECK_BLOCK):
        block = slice(lo, lo + _CHECK_BLOCK)
        last = np.add(us[block], lens[block], dtype=np.int64)
        last += w
        if np.any(last > doc_lengths[docs[block]]):
            raise _refused(
                path, "index.lens", "holds an interval past the last window of its document"
            )


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

    A file whose digests hold but whose columns break what the search
    kernels assume is a :class:`PersistenceError`
    naming the section, and falls back like a corrupt one.
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
