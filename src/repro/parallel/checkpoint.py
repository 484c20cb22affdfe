"""Chunk-granularity run checkpoints for the parallel executor.

Long workload runs and all-pairs self-joins are the operations most
exposed to worker crashes, OOM kills, and operator Ctrl-C — and the
most expensive to restart from zero.  :class:`RunCheckpoint` makes them
resumable: every completed unit of work (one dispatched chunk) is
appended as a record and periodically flushed to disk through the same
atomic, checksummed envelope the index files use
(:func:`repro.persistence.write_envelope`), so a checkpoint interrupted
mid-write is never half-readable — it is either the previous complete
state or the new one.

A checkpoint is bound to its run by a **fingerprint** — a BLAKE2b hash
of the search parameters and every input item — recorded in the
envelope header.  Resuming against different inputs (edited corpus,
changed parameters, reordered queries) fails with a typed
:class:`~repro.persistence.PersistenceError` instead of silently
merging incompatible partial results.

Record shapes (plain dicts, one JSON section of the envelope; a tuple
comes back as a list, so a resumed run rebuilds its pair tuples):

``{"type": "unit", "keys": [...], "pid": int, "elapsed": float, ...}``
    One completed chunk.  ``keys`` identifies the finished items
    (query positions for workloads, document ids for self-joins);
    operation-specific payload fields ride alongside (``rows`` +
    ``snapshot`` for workloads, ``pairs`` for self-joins).
``{"type": "failure", "failure": {...}}``
    One quarantined query (a serialized
    :class:`~repro.eval.harness.QueryFailure`), so a resumed run does
    not re-run known-poison queries.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from ..persistence import PersistenceError, read_envelope, write_envelope

#: Envelope ``kind`` tags (checked on load, so a workload checkpoint
#: can never be resumed as a self-join or vice versa).
WORKLOAD_KIND = "workload-checkpoint"
SELFJOIN_KIND = "selfjoin-checkpoint"

_FINGERPRINT_SIZE = 16


def _hash_document(hasher, position: int, document) -> None:
    """Mix one document's identity and content into ``hasher``."""
    hasher.update(
        f"{position}:{document.doc_id}:{document.name}:{len(document)}".encode()
    )
    token_digest = hashlib.blake2b(digest_size=8)
    token_digest.update(repr(document.tokens).encode())
    hasher.update(token_digest.digest())


def workload_fingerprint(searcher, queries) -> str:
    """Identity of a ``run_workload`` invocation (params + every query)."""
    hasher = hashlib.blake2b(digest_size=_FINGERPRINT_SIZE)
    hasher.update(b"workload:")
    hasher.update(repr(getattr(searcher, "params", None)).encode())
    hasher.update(str(len(queries)).encode())
    for position, query in enumerate(queries):
        _hash_document(hasher, position, query)
    return hasher.hexdigest()


def selfjoin_fingerprint(data, params, exclude) -> str:
    """Identity of a ``self_join`` invocation (params + every document)."""
    hasher = hashlib.blake2b(digest_size=_FINGERPRINT_SIZE)
    hasher.update(b"selfjoin:")
    hasher.update(repr(params).encode())
    hasher.update(f"exclude={exclude}:".encode())
    documents = list(data)
    hasher.update(str(len(documents)).encode())
    for position, document in enumerate(documents):
        _hash_document(hasher, position, document)
    return hasher.hexdigest()


class RunCheckpoint:
    """Append-only record store for one resumable parallel run.

    Records accumulate in memory through :meth:`record` /
    :meth:`record_failure` and hit disk on :meth:`flush` (atomic
    replace of the whole file — chunk records are small relative to
    the work they represent, so rewriting is cheap and keeps the format
    trivially consistent).  ``saves`` counts flushes for the run's
    :class:`~repro.eval.harness.RecoveryReport`.
    """

    def __init__(self, path: str | Path, kind: str, fingerprint: str) -> None:
        self.path = Path(path)
        self.kind = kind
        self.fingerprint = fingerprint
        self.records: list[dict] = []
        self.saves = 0
        self._dirty = 0

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: str | Path, kind: str, fingerprint: str) -> "RunCheckpoint":
        """Load an existing checkpoint, validating kind and fingerprint."""
        header, sections, _arrays = read_envelope(path, kind)
        recorded = header.get("fingerprint")
        if recorded != fingerprint:
            raise PersistenceError(
                f"checkpoint {path} was written for a different run "
                f"(fingerprint {recorded} != {fingerprint}); the inputs or "
                f"parameters changed — delete the checkpoint to start over"
            )
        checkpoint = cls(path, kind, fingerprint)
        records = sections.get("records")
        if not isinstance(records, list):
            raise PersistenceError(f"checkpoint {path} has no record list")
        checkpoint.records = records
        return checkpoint

    @classmethod
    def open(
        cls, path: str | Path, kind: str, fingerprint: str, *, resume: bool
    ) -> "RunCheckpoint":
        """Resume ``path`` when asked and present; otherwise start fresh.

        With ``resume=True`` a missing file is not an error (first run
        of a to-be-resumed job); an existing file must match the
        fingerprint.  With ``resume=False`` any existing checkpoint is
        ignored and will be overwritten on the first flush.
        """
        path = Path(path)
        if resume and path.exists():
            return cls.load(path, kind, fingerprint)
        return cls(path, kind, fingerprint)

    # ------------------------------------------------------------------
    def done_keys(self) -> set:
        """Item keys covered by completed-unit records."""
        keys: set = set()
        for record in self.records:
            if record.get("type") == "unit":
                keys.update(record.get("keys", ()))
        return keys

    def unit_records(self) -> list[dict]:
        return [r for r in self.records if r.get("type") == "unit"]

    def failure_records(self) -> list[dict]:
        return [r for r in self.records if r.get("type") == "failure"]

    def record(self, keys, **payload) -> None:
        """Append one completed-unit record (call :meth:`flush` to persist)."""
        self.records.append({"type": "unit", "keys": list(keys), **payload})
        self._dirty += 1

    def record_failure(self, failure: dict) -> None:
        """Append one quarantined-query record."""
        self.records.append({"type": "failure", "failure": dict(failure)})
        self._dirty += 1

    @property
    def dirty(self) -> int:
        """Records appended since the last flush."""
        return self._dirty

    def flush(self, *, force: bool = False) -> None:
        """Atomically write the full record list (no-op when clean).

        ``force=True`` writes even with nothing new recorded — the
        abort paths use it so the file named by a
        :class:`~repro.errors.WorkerCrashError` always exists, even
        when the crash landed before the first chunk completed.
        """
        if not self._dirty and not (force and not self.path.exists()):
            return
        write_envelope(
            self.path,
            self.kind,
            {"records": self.records},
            header={"fingerprint": self.fingerprint},
        )
        self.saves += 1
        self._dirty = 0

    def remove(self) -> None:
        """Delete the checkpoint file (end of a successful run)."""
        self.path.unlink(missing_ok=True)

    def __repr__(self) -> str:
        return (
            f"RunCheckpoint({self.path}, kind={self.kind!r}, "
            f"records={len(self.records)}, saves={self.saves})"
        )
