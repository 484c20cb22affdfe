"""Write-ahead token log for the streaming ingestion pipeline.

Every mutation (add or remove) is appended here *before* it touches the
memtable, so a crash at any point loses nothing that was acknowledged:
recovery replays the log on top of the last durable manifest and lands
in a state pair-identical to the uncrashed run.

Design notes:

* **One JSON record per line**, each line carrying a BLAKE2b digest of
  its payload.  JSON (not pickle) because the log is append-only — a
  torn final record must be detectable and skippable without giving up
  on the rest of the file, and line framing makes "the rest of the
  file" well defined.
* **Text or token strings, not ids.**  Ids are an artifact of
  interning order; an add record carries the ``text`` it was given
  (``IngestStore.add_text``, tokenized again at replay by the store's
  own tokenizer) or its ``tokens`` (``add_tokens``, ``add_document``,
  the bootstrap), and replaying either through
  ``DocumentCollection.add_tokens`` re-interns them in the original
  arrival order, so the rebuilt vocabulary, rank sequences, and
  lazily-admitted negative ranks all come out identical to the
  pre-crash process.
* **Torn tails are tolerated, corruption is not.**  A bad record with
  nothing valid after it is the expected signature of a crash mid-append
  and replay simply stops there; a bad record *followed by* valid ones
  means the file was damaged after the fact and raises a typed
  :class:`~repro.persistence.PersistenceError`.
* **Generations.**  The store opens a fresh ``wal-NNNNNN.log`` at every
  memtable seal (and on every open); the manifest records the first
  generation not yet folded into a segment, and recovery replays every
  generation from there in ascending order.

The ``ingest.wal`` fault point wraps every appended line
(:func:`repro.faults.inject_bytes`), so tests can corrupt, delay, or
kill at exactly the byte that would have been torn by a real crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path

from .. import faults
from ..persistence import PersistenceError

#: Digest width appended to every record line (hex characters = 2x).
_WAL_DIGEST_SIZE = 8

_WAL_NAME_RE = re.compile(r"^wal-(\d{6})\.log$")


def wal_name(generation: int) -> str:
    """Canonical file name of WAL ``generation`` (zero-padded)."""
    if generation < 1:
        raise ValueError(f"WAL generation must be >= 1, got {generation}")
    return f"wal-{generation:06d}.log"


def wal_generations(directory: str | Path) -> list[tuple[int, Path]]:
    """All WAL files under ``directory`` as ``(generation, path)``, ascending."""
    directory = Path(directory)
    found = []
    if directory.is_dir():
        for entry in directory.iterdir():
            match = _WAL_NAME_RE.match(entry.name)
            if match:
                found.append((int(match.group(1)), entry))
    return sorted(found)


#: Encodes every record: compact separators, built once (``json.dumps``
#: with separators other than its defaults builds an encoder per call).
_RECORD_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _record_digest(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=_WAL_DIGEST_SIZE).hexdigest()


class WriteAheadLog:
    """Appender for one WAL generation file.

    ``fsync=True`` makes every append durable before it returns (the
    safest and slowest mode); the default flushes to the OS, which
    survives process crashes but not power loss — the same trade most
    LSM stores default to.
    """

    def __init__(self, path: str | Path, *, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._handle = open(self.path, "ab")
        self.records_written = 0

    def append(self, record: dict) -> None:
        """Append one mutation record (checksummed, framed, flushed)."""
        payload = _RECORD_ENCODER.encode(record).encode("utf-8")
        line = payload + b"\t" + _record_digest(payload).encode("ascii") + b"\n"
        line = faults.inject_bytes(
            "ingest.wal",
            line,
            seq=record.get("seq"),
            op=record.get("op"),
            generation=self.path.name,
        )
        self._handle.write(line)
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self.records_written += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __repr__(self) -> str:
        return f"WriteAheadLog({self.path.name}, records={self.records_written})"


def read_wal(path: str | Path) -> tuple[list[dict], bool]:
    """Replay one WAL file; returns ``(records, torn_tail)``.

    ``torn_tail`` is True when the file ends in a partial or
    checksum-failed record — the normal residue of a crash mid-append,
    which recovery silently drops.  A damaged record anywhere *before*
    an intact one is disk corruption, not a torn write, and raises
    :class:`~repro.persistence.PersistenceError` naming the line.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise PersistenceError(f"cannot read WAL {path}: {exc}") from exc
    records: list[dict] = []
    bad_line: int | None = None
    for line_no, line in enumerate(raw.split(b"\n"), start=1):
        if not line:
            continue
        payload, sep, digest = line.rpartition(b"\t")
        record = None
        if sep and _record_digest(payload) == digest.decode("ascii", "replace"):
            try:
                record = json.loads(payload)
            except json.JSONDecodeError:
                record = None
        if record is None:
            if bad_line is None:
                bad_line = line_no
            continue
        if bad_line is not None:
            raise PersistenceError(
                f"WAL {path}: record at line {bad_line} is corrupt but "
                f"later records are intact — the file is damaged, not "
                f"torn; restore from a snapshot"
            )
        records.append(record)
    return records, bad_line is not None
