"""Durable segment manifest for the LSM ingest store.

The manifest is the single point of truth for what is on disk: which
compact segment files are live, the sealed prefix of the corpus they
cover, the tombstones accumulated against that prefix, and the first
WAL generation whose records are *not* yet folded into a segment.  It
is a header, like a snapshot's ``data`` section: the tokenizer, the one
vocabulary, document names and the global order (its tables are
integer columns; the order holds no vocabulary).  That order is the
store's one copy: a segment file stores none, and
:meth:`~repro.ingest.store.IngestStore.open` hands it to each segment's
load.  It holds no document — the segments' rank columns are the sealed
documents, and their list must tile ``[0, next_doc_id)`` exactly.  The
recovery invariant is::

    manifest state  +  replay of WAL generations >= wal_generation
        ==  pre-crash live state   (pair-identical query results)

It reuses the checksummed envelope from :mod:`repro.persistence` (kind
``"ingest-manifest"``: JSON sections, and the order's and the header's
integer columns), written atomically, so a crash mid-write leaves the
previous manifest intact and a corrupted file fails loudly with a typed
:class:`~repro.persistence.PersistenceError` instead of resurrecting a
half-written state.

Ordering discipline (write-ahead, like the WAL itself):

1. new segment file hits disk (``segment.g<N>.idx``),
2. the manifest referencing it is atomically replaced,
3. only then are replaced segment files and folded WALs deleted and the
   in-memory tier list flipped.

A crash between 1 and 2 leaves an *orphan* segment file, which recovery
detects (not referenced by the manifest) and deletes.  A crash between
2 and 3 leaves extra WAL files, whose replay is idempotent.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import ReproError
from ..params import SearchParams
from ..partition.scheme import PartitionScheme
from ..persistence import (
    PersistenceError,
    check_dtypes,
    header_sections,
    load_header,
    load_order,
    older_format_version,
    order_sections,
    read_envelope,
    write_envelope,
)

MANIFEST_NAME = "MANIFEST"
MANIFEST_KIND = "ingest-manifest"

#: Stem for segment snapshot files (``segment.g000003.idx``).
SEGMENT_STEM = "segment"


class ManifestState:
    """Decoded contents of one manifest file."""

    __slots__ = (
        "params",
        "order",
        "scheme",
        "data",
        "segments",
        "tombstones",
        "next_doc_id",
        "wal_generation",
        "generation",
    )

    def __init__(
        self,
        *,
        params,
        order,
        scheme,
        data,
        segments,
        tombstones,
        next_doc_id,
        wal_generation,
        generation,
    ) -> None:
        self.params = params
        self.order = order
        self.scheme = scheme
        #: Collection header of ``[0, next_doc_id)``: ``{"tokenizer",
        #: "vocabulary", "names"}`` (the tokens are the segments'; the
        #: names a list of ``str``).
        self.data = data
        #: ``[{"file", "doc_lo", "doc_hi", "generation"}, ...]`` ascending.
        self.segments = segments
        #: Tombstoned doc ids within the sealed prefix.
        self.tombstones = tombstones
        self.next_doc_id = next_doc_id
        #: First WAL generation recovery must replay.
        self.wal_generation = wal_generation
        #: Highest tier/WAL generation the store had handed out.
        self.generation = generation


def manifest_path(directory: str | Path) -> Path:
    return Path(directory) / MANIFEST_NAME


def write_manifest(directory: str | Path, state: ManifestState) -> None:
    """Atomically persist ``state`` as the directory's manifest."""
    header = {
        "next_doc_id": state.next_doc_id,
        "wal_generation": state.wal_generation,
        "generation": state.generation,
        "segments": [dict(segment) for segment in state.segments],
    }
    data = state.data
    sections = {
        "params": state.params.to_dict(),
        "scheme": state.scheme.to_dict(),
        "tombstones": sorted(state.tombstones),
    }
    sections["order"], arrays = order_sections(state.order)
    sections["data"], header_arrays = header_sections(
        data["tokenizer"], data["vocabulary"], data["names"]
    )
    arrays.update(header_arrays)
    write_envelope(
        manifest_path(directory), MANIFEST_KIND, sections, arrays, header=header
    )


#: Envelope version of an older store's ``MANIFEST`` -> what wrote it and
#: the last releases that read it.  Up to 2.25 a ``MANIFEST`` stored every
#: document; the file is not read to tell which kind it is.  From version
#: 11 on a TOC names the release that wrote it, so this table stops here.
_OLDER_STORES = {
    3: ("repro 2.0–2.14, which stored every document in it",
        "repro 2.14.0 reads it"),
    4: ("repro 2.15–3.1.x, whose segments each stored the order and "
        "vocabulary again", "repro 3.1.1 reads it, or repro 2.25 if it "
        "was written by 2.25 or before and stores every document"),
    5: ("repro 3.2.x, whose segments keyed signatures on 8 bytes",
        "repro 3.2.0 reads it"),
    6: ("repro 3.3.x, whose global order pickled its tables as int lists",
        "repro 3.3.0 reads it"),
    7: ("repro 3.4.x, whose global order pickled its lazily admitted "
        "tokens as a dict", "repro 3.4.0 reads it"),
    8: ("repro 3.5.x, whose segments stored postings as run offsets and "
        "interval ends", "repro 3.5.0 reads it"),
    9: ("repro 4.0.x, whose global order stored a window-frequency table "
        "and whose vocabulary and names were lists of strings",
        "repro 4.0.0 reads it"),
    10: ("repro 4.1.x, whose TOC and small sections were pickles",
         "repro 4.1.0 reads it"),
}


def read_manifest(directory: str | Path) -> ManifestState:
    """Load and validate the manifest of an ingest directory."""
    path = manifest_path(directory)
    try:
        header, sections, arrays = read_envelope(path, MANIFEST_KIND)
    except PersistenceError:
        older = _OLDER_STORES.get(older_format_version(path))
        if older is not None:
            written_by, readers = older
            raise PersistenceError(
                f"{path} was written by {written_by}, and {readers} — "
                f"re-ingest the corpus into a new directory to open it with "
                f"this release"
            ) from None
        raise
    for name in ("params", "scheme", "order", "data", "tombstones"):
        if name not in sections:
            raise PersistenceError(f"{path}: manifest is missing section {name!r}")
    try:
        params = SearchParams.from_dict(sections["params"])
        scheme = PartitionScheme.from_dict(sections["scheme"])
        segments = list(header["segments"])
        next_doc_id = header["next_doc_id"]
        wal_generation, generation = header["wal_generation"], header["generation"]
        tombstones = set(sections["tombstones"])
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"{path}: malformed manifest: {exc!r}") from exc
    check_dtypes(path, arrays)
    order = load_order(path, sections, arrays)
    data = load_header(path, sections, arrays, order)
    lo = 0
    for segment in segments:
        if segment["doc_lo"] != lo:
            raise PersistenceError(
                f"{path}: segment {segment['file']} starts at doc "
                f"{segment['doc_lo']}, expected {lo} — the segment list "
                f"does not tile the corpus"
            )
        lo = segment["doc_hi"]
    if lo != next_doc_id:
        raise PersistenceError(
            f"{path}: segments cover {lo} docs but next_doc_id is "
            f"{next_doc_id} — the segment list does not tile the corpus"
        )
    if len(data["names"]) != next_doc_id:
        raise PersistenceError(
            f"{path}: collection header names {len(data['names'])} docs, "
            f"next_doc_id says {next_doc_id}"
        )
    return ManifestState(
        params=params,
        order=order,
        scheme=scheme,
        data=data,
        segments=segments,
        tombstones=tombstones,
        next_doc_id=next_doc_id,
        wal_generation=wal_generation,
        generation=generation,
    )
