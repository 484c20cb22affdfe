"""IngestStore: the LSM write path behind the unified mutation API.

One store owns everything mutable about a live corpus:

* the **active memtable** (one rank column appended to at add time and
  indexed a write burst at a time; search-visible immediately),
* the ordered list of frozen tiers — compact **segments** plus any
  sealed memtables a fold has not consumed yet,
* the **tombstone** set and the mutation epoch result caches key on,
* the **WAL** (durable stores) and the **manifest** snapshot,
* the optional background **compactor** thread.

Writes are strictly write-ahead: the WAL record is appended and flushed
before the memtable or collection mutates, so an acknowledged add or
remove survives any crash.  Tier membership only ever changes through
an *install*: the store's one :class:`~repro.ingest.searcher.LSMSearcher`
(the same object for the store's life) is re-pointed over the
post-change tiers.

Durable fold ordering (crash-safe at every point, see
:mod:`repro.ingest.manifest`): segment file → manifest → in-memory flip
→ delete folded WALs / replaced segment files.  The ``ingest.compact``
fault point fires at each phase boundary (``phase`` context:
``"fold"``, ``"segment"``, ``"manifest"``) so tests can kill the
compactor exactly where a real crash would land.

Locking, the one rule: everything that changes what a query reads — an
add, a remove, the commit of a seal or a fold — happens under the write
side of the store's readers–writer lock, and a query
(:meth:`LSMSearcher.search <repro.ingest.searcher.LSMSearcher.search>`,
whoever calls it) holds the read side for its whole run and takes
nothing else.  Folds do their work off-lock and enter only to commit,
so serving never blocks on a merge.  Order, everywhere: fold lock →
write side → store mutex.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .. import faults
from ..corpus import DocumentCollection
from ..core.pkwise import PKWiseSearcher, order_and_scheme
from ..errors import ConfigurationError, CorpusError, IndexStateError
from ..index.compact import CompactIntervalIndex, PackedRankDocs
from ..obs import MetricsRegistry, get_tracer
from ..ordering import GlobalOrder
from ..persistence import (
    PersistenceError,
    generation_name,
    load_bundle,
    save_searcher,
)
from ..routing import FingerprintTier
from .manifest import (
    SEGMENT_STEM,
    ManifestState,
    manifest_path,
    read_manifest,
    write_manifest,
)
from .memtable import Memtable
from .searcher import LSMSearcher
from .tiered import Tier, TieredRankDocs, tier_fingerprints
from .wal import WriteAheadLog, read_wal, wal_generations, wal_name

#: Seal the memtable once it holds this many documents ...
MEMTABLE_MAX_DOCS = 256

#: ... or this many tokens, whichever trips first.
MEMTABLE_MAX_TOKENS = 1 << 18

#: Fold all segments into one when their count exceeds this.
MAX_SEGMENTS = 4

#: Seconds the background compactor sleeps between checks when no
#: write wakes it.
COMPACTOR_POLL_SECONDS = 0.05

#: Seconds :meth:`IngestStore.stop_compactor` waits for the thread.
COMPACTOR_STOP_TIMEOUT = 10.0


class _ReadWriteLock:
    """Writer-preferring readers-writer lock.

    Searches share the index (readers); adds, removes, installs and
    memtable catch-ups change the rank column, tombstones, tier lists
    and columns a concurrent query reads (writers).  Writer preference
    keeps mutations from starving under a steady query stream.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._condition:
            while self._writer or self._writers_waiting:
                self._condition.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._condition:
            self._readers -= 1
            if self._readers == 0:
                self._condition.notify_all()

    def acquire_write(self) -> None:
        with self._condition:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._condition.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._condition:
            self._writer = False
            self._condition.notify_all()


class _Prefix:
    """An append-only table — the vocabulary, the global order — as it
    stood when it held ``length`` entries.

    Taking one under the writer lock is O(1) whatever the table's size;
    the writer asks it for the table's stored columns cut to that prefix
    (``table.to_arrays(length)``) when a manifest is written, off-lock,
    while adds go on appending past ``length``.
    """

    __slots__ = ("table", "length")

    def __init__(self, table, length: int) -> None:
        self.table = table
        self.length = length

    def to_arrays(self):
        return self.table.to_arrays(self.length)


class _SealedSnapshot:
    """What the manifest says of the sealed prefix, taken at seal time.

    Manifest writes happen off-lock (during folds), so they must not
    read what concurrent adds change; what a manifest needs is taken
    here while the writer lock is held — the append-only vocabulary and
    order as prefix lengths (:class:`_Prefix`), the rest as copies.  No
    document is: the sealed documents are the segments' rank columns.
    """

    __slots__ = ("header", "order", "tombstones", "next_doc_id", "wal_generation")

    def __init__(self, *, header, order, tombstones, next_doc_id, wal_generation):
        #: :func:`_sealed_header` of the collection.
        self.header = header
        #: The global order as a :class:`_Prefix` of its admitted tokens.
        self.order = order
        self.tombstones = tombstones
        self.next_doc_id = next_doc_id
        self.wal_generation = wal_generation


def _sealed_header(data: DocumentCollection) -> dict:
    """What a manifest keeps of ``data``: its tokenizer, its vocabulary
    as a :class:`_Prefix` of today's length (adds go on interning into
    it) and its names.  Nothing is decoded."""
    vocabulary = data.vocabulary
    return {
        "tokenizer": data.tokenizer,
        "vocabulary": _Prefix(vocabulary, len(vocabulary)),
        "names": data.names(),
    }


def _order_prefix(order: GlobalOrder) -> _Prefix:
    """``order`` as it stands, for a manifest: its admitted tokens so far."""
    return _Prefix(order, order.num_admitted)


def _id_column(document) -> np.ndarray:
    """``document``'s token ids as the int64 column the order ranks."""
    return np.fromiter(document.tokens, np.int64, len(document))


class IngestStore:
    """Log-structured write path over memtable + segment tiers.

    Construct with :meth:`create` (fresh store, optionally durable),
    :meth:`open` (recover a durable store: manifest + WAL replay), or
    :meth:`from_searcher` (wrap an existing searcher as the base tier —
    the lazy upgrade behind ``Index.add`` on a static index).  Every
    store has its :class:`~repro.corpus.DocumentCollection`: adds append to it.
    """

    def __init__(
        self,
        params,
        order,
        scheme,
        data: DocumentCollection,
        *,
        directory=None,
        fsync: bool = False,
    ) -> None:
        self.params = params
        self.order = order
        self.scheme = scheme
        self.data = data
        self.directory = Path(directory) if directory is not None else None
        self.fsync = fsync
        self._segments: list[Tier] = []
        self._active: Memtable | None = None
        #: The active memtable's tier, one per memtable: fingerprints a
        #: routed query builds on it outlive the installs of folds.
        self._active_tier: Tier | None = None
        self._generation = 0
        #: Live tombstones (shared by reference with the engine; only
        #: ever mutated in place, under the write side).
        self.removed: set[int] = set()
        #: Bumped by every add/remove; the service-level cache epoch.
        self.mutation_epoch = 0
        self._wal: WriteAheadLog | None = None
        self._seq = 0
        self._snapshot: _SealedSnapshot | None = None
        self.metrics = MetricsRegistry()
        #: Readers–writer lock: queries hold the read side, everything
        #: that changes what they read the write side.
        self._lock = _ReadWriteLock()
        self._mutex = threading.RLock()
        self._fold_lock = threading.Lock()
        self._view = LSMSearcher(self)
        self._closed = False
        self._compactor: threading.Thread | None = None
        self._wake = threading.Event()
        self._stop = False
        #: Last exception swallowed by the background compactor.
        self.last_error: BaseException | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        params,
        *,
        directory=None,
        data=None,
        routing=None,
        background: bool = False,
        fsync: bool = False,
    ) -> "IngestStore":
        """A fresh store; pre-existing ``data`` documents are bootstrapped
        through the write path (so a durable store's WAL covers them)."""
        if routing is not None:
            params = params.with_routing(routing)
        data = data if data is not None else DocumentCollection()
        order, scheme = order_and_scheme(data, params)
        store = cls(params, order, scheme, data, directory=directory, fsync=fsync)
        store._generation = 1
        store._active = Memtable(0, 1, params, scheme)
        if store.directory is not None:
            store.directory.mkdir(parents=True, exist_ok=True)
            if manifest_path(store.directory).exists():
                raise PersistenceError(
                    f"{store.directory} already holds an ingest store; "
                    f"use IngestStore.open to resume it"
                )
            store._snapshot = _SealedSnapshot(
                header=_sealed_header(DocumentCollection(tokenizer=data.tokenizer)),
                order=_order_prefix(order),
                tombstones=set(),
                next_doc_id=0,
                wal_generation=1,
            )
            store._write_initial_manifest()
            store._wal = WriteAheadLog(
                store.directory / wal_name(1), fsync=fsync
            )
        decode = data.vocabulary.decode
        documents = list(data.documents)
        for document in documents:
            store._log({"op": "add", "tokens": decode(document.tokens), "name": document.name})
        # The documents' rank column, appended in one block.
        store._active.extend(order.rank_documents(documents))
        store.metrics.counter("ingest.adds").inc(len(documents))
        store.mutation_epoch = 0  # bootstrap is construction, not mutation
        store._refresh_view_locked()
        if background:
            store.start_compactor()
        return store

    @classmethod
    def open(
        cls,
        directory,
        *,
        routing=None,
        background: bool = False,
        fsync: bool = False,
    ) -> "IngestStore":
        """Recover a durable store: manifest, segments, then WAL replay.

        The manifest holds no document: the sealed ones are read back
        through the mapped segments' rank columns, as
        :meth:`repro.Index.open` reads a snapshot's, and replay appends
        the rest."""
        directory = Path(directory)
        state = read_manifest(directory)
        if routing is not None:
            state.params = state.params.with_routing(routing)
        segments = []
        for record in state.segments:
            path = directory / record["file"]
            segment = load_bundle(
                path, fallback=False, mmap=True, order=state.order
            ).searcher
            if len(segment.rank_docs) != record["doc_hi"] - record["doc_lo"]:
                raise PersistenceError(
                    f"{path} holds {len(segment.rank_docs)} docs, the "
                    f"manifest says [{record['doc_lo']}, {record['doc_hi']})"
                )
            segments.append(
                Tier(
                    record["doc_lo"],
                    record["doc_hi"],
                    record["generation"],
                    segment.index,
                    segment.rank_docs,
                    "segment",
                    path,
                )
            )
        header = state.data
        order = state.order
        data = DocumentCollection.over_columns(
            header["tokenizer"], header["vocabulary"],
            TieredRankDocs(segments), order.token_table(), header["names"],
        )
        store = cls(
            state.params,
            order,
            state.scheme,
            data,
            directory=directory,
            fsync=fsync,
        )
        store._segments = segments
        store.removed.update(state.tombstones)
        # Snapshot the sealed prefix *before* replay mutates the live
        # collection/order (a compact() before the next seal reuses it).
        store._snapshot = _SealedSnapshot(
            header=_sealed_header(data),
            order=_order_prefix(order),
            tombstones=set(state.tombstones),
            next_doc_id=state.next_doc_id,
            wal_generation=state.wal_generation,
        )
        referenced = {record["file"] for record in state.segments}
        for orphan in directory.glob(f"{SEGMENT_STEM}.g*.idx"):
            if orphan.name not in referenced:
                orphan.unlink()
                store.metrics.counter("ingest.recovered_orphans").inc()
        replay = [
            (gen, path)
            for gen, path in wal_generations(directory)
            if gen >= state.wal_generation
        ]
        highest = replay[-1][0] if replay else None
        store._generation = max(
            [state.generation] + [gen for gen, _ in replay]
        ) + 1
        store._active = Memtable(
            state.next_doc_id, store._generation, state.params, state.scheme
        )
        for gen, path in replay:
            records, torn = read_wal(path)
            if torn:
                if gen != highest:
                    raise PersistenceError(
                        f"WAL {path} has a torn tail but later generations "
                        f"exist — the log sequence is damaged"
                    )
                store.metrics.counter("ingest.torn_wal_tails").inc()
            for record in records:
                store._replay(record)
        store._wal = WriteAheadLog(
            directory / wal_name(store._generation), fsync=fsync
        )
        try:
            store._refresh_view_locked()
            if background:
                store.start_compactor()
        except BaseException:
            # Interrupted here (a SIGTERM at `repro serve --live` start-up),
            # the store must not keep its WAL open or a compactor running.
            store.close()
            raise
        return store

    @classmethod
    def from_searcher(cls, searcher, data: DocumentCollection) -> "IngestStore":
        """Wrap an existing searcher as the base tier of an in-memory store.

        This is the lazy upgrade behind the first write on a built or
        opened :class:`~repro.Index` (``Index._ensure_store``, whether
        the write came through the index or its service): its frozen
        compact index becomes the base segment and gains a mutable
        memtable on top without thawing.  ``data`` is the searcher's
        collection, which adds go on appending to.  Mutations are not
        durable; create a directory-backed store for that.
        """
        if not isinstance(searcher, PKWiseSearcher):
            raise ConfigurationError(
                f"{type(searcher).__name__} cannot take writes: live "
                f"ingestion layers a memtable over a PKWiseSearcher's "
                f"interval index, which this engine does not have"
            )
        store = cls(
            searcher.params,
            searcher.order,
            searcher.scheme,
            data,
        )
        num_docs = len(searcher.rank_docs)
        if num_docs:
            # The tier the searcher's routed queries built, if any.
            store._segments.append(
                Tier(0, num_docs, 1, searcher.index, searcher.rank_docs, "segment",
                     fingerprints=searcher._routing_tier)
            )
            store._generation = 2
        else:
            store._generation = 1
        store._active = Memtable(num_docs, store._generation,
                                 searcher.params, searcher.scheme)
        store.removed.update(searcher.removed_documents)
        store.mutation_epoch = searcher.index_epoch
        store._refresh_view_locked()
        return store

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def searcher(self) -> LSMSearcher:
        """The store's query engine — one object for the store's life;
        installs re-point it, they never replace it.  A closed store no
        longer holds it (:meth:`close`)."""
        if self._view is None:
            raise IndexStateError(
                "ingest store is closed; the engine searcher() returned "
                "before close() still answers queries"
            )
        return self._view

    @property
    def next_doc_id(self) -> int:
        return self._active.doc_hi

    @property
    def num_segments(self) -> int:
        return sum(1 for tier in self._segments if tier.kind == "segment")

    @property
    def memtable_docs(self) -> int:
        return len(self._active)

    def metrics_snapshot(self) -> dict:
        registry = MetricsRegistry().merge(self.metrics)
        registry.gauge("ingest.memtable_docs").set(len(self._active))
        registry.gauge("ingest.segments").set(self.num_segments)
        registry.gauge("ingest.tombstones").set(len(self.removed))
        return registry.snapshot()

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    @contextmanager
    def _writer(self):
        """Write side of the store's lock outside, store mutex inside."""
        self._lock.acquire_write()
        try:
            with self._mutex:
                yield
        finally:
            self._lock.release_write()

    def _check_open(self) -> None:
        if self._closed:
            raise IndexStateError("ingest store is closed")

    def _log(self, record: dict) -> None:
        if self._wal is None:
            return
        record = {"seq": self._seq, **record}
        self._wal.append(record)
        self._seq += 1
        self.metrics.counter("ingest.wal_records").inc()

    def _index(self, document) -> int:
        """Rank ``document``'s ids (one min/max, one gather) and append
        them to the active memtable's rank column."""
        doc_id = self._active.add(self.order.rank_ids(_id_column(document), admit=True))
        self.mutation_epoch += 1
        self.metrics.counter("ingest.adds").inc()
        return doc_id

    def _require_next(self, doc_id: int) -> None:
        """Refuse an add whose collection doc id is not the memtable's
        next one, before it has logged, appended or indexed anything."""
        if doc_id != self.next_doc_id:
            raise IndexStateError(
                f"collection assigned doc id {doc_id} but the memtable is "
                f"at {self.next_doc_id} — collection mutated outside the store"
            )

    def add_text(self, text: str, name: str | None = None) -> int:
        """Tokenize, log, and index one document; returns its doc id.
        The WAL record carries ``text``: replay tokenizes it again."""
        tokens = self.data.tokenizer.tokenize(text)
        return self._add({"op": "add", "text": text, "name": name}, tokens)

    def add_tokens(self, tokens, name: str | None = None) -> int:
        """Log and index one document given as token strings."""
        tokens = list(tokens)
        return self._add({"op": "add", "tokens": tokens, "name": name}, tokens)

    def _add(self, record: dict, tokens: list) -> int:
        with self._writer():
            self._check_open()
            self._require_next(len(self.data))
            self._log(record)
            document = self.data.add_tokens(tokens, name=record["name"])
            doc_id = self._index(document)
        self._after_write()
        return doc_id

    def add_document(self, document) -> int:
        """Ingest a pre-encoded :class:`~repro.corpus.Document`.

        Accepts both a document already appended to this store's
        collection (the historical ``data.add_text`` + ``add_document``
        flow) and a free-standing one, which is appended first.
        Query-encoded documents (OOV sentinel ids) are refused.
        """
        if min(document.tokens, default=0) < 0:
            raise CorpusError(
                "query-encoded documents (OOV sentinel ids) cannot be "
                "ingested as data"
            )
        with self._writer():
            self._check_open()
            documents = self.data.documents
            # Already appended by the caller through the collection: log
            # it and index it in place.
            appended = bool(documents) and documents[-1] is document
            self._require_next(len(documents) - appended)
            try:
                tokens = self.data.vocabulary.decode(document.tokens)
            except IndexError:
                raise CorpusError(
                    "document is encoded against a different "
                    "vocabulary than this store's collection"
                ) from None
            self._log({"op": "add", "tokens": tokens, "name": document.name})
            if not appended:
                document = self.data.add_tokens(tokens, name=document.name)
            doc_id = self._index(document)
        self._after_write()
        return doc_id

    def remove(self, doc_id: int) -> None:
        """Tombstone ``doc_id``; space is reclaimed at the next fold.  An
        id already tombstoned, or emptied by a compaction, is left alone:
        no WAL record, no epoch bump, no tombstone for the next fold."""
        with self._writer():
            self._check_open()
            if not 0 <= doc_id < self.next_doc_id:
                raise IndexError(f"no document with id {doc_id}")
            if doc_id in self.removed:
                return
            if not self._view.rank_docs.doc_length(doc_id):
                return  # emptied by a compaction
            self._log({"op": "remove", "doc_id": doc_id})
            self.removed.add(doc_id)
            self.mutation_epoch += 1
            self.metrics.counter("ingest.removes").inc()
        self._after_write()

    def _replay(self, record: dict) -> None:
        """Re-apply one WAL record during recovery (no logging, no locks)."""
        op = record.get("op")
        seq = record.get("seq")
        if op == "add":
            if isinstance(record.get("text"), str):
                tokens = self.data.tokenizer.tokenize(record["text"])
            elif isinstance(record.get("tokens"), list):
                tokens = record["tokens"]
            else:
                raise PersistenceError(
                    f"WAL add record seq={seq} carries neither a 'text' "
                    f"string nor a 'tokens' list"
                )
            document = self.data.add_tokens(tokens, name=record.get("name"))
            self._active.add(self.order.rank_ids(_id_column(document), admit=True))
            self.metrics.counter("ingest.wal_replayed").inc()
        elif op == "remove":
            doc_id = record.get("doc_id")
            if not isinstance(doc_id, int):
                raise PersistenceError(
                    f"WAL remove record seq={seq} carries no integer 'doc_id'"
                )
            if 0 <= doc_id < self.next_doc_id:
                self.removed.add(doc_id)
            self.metrics.counter("ingest.wal_replayed").inc()
        else:
            raise PersistenceError(f"unknown WAL op {op!r} in record seq={seq}")
        if seq is not None:
            self._seq = max(self._seq, seq + 1)

    def _should_flush(self) -> bool:
        active = self._active
        return len(active) > 0 and (
            len(active) >= MEMTABLE_MAX_DOCS
            or active.total_tokens >= MEMTABLE_MAX_TOKENS
        )

    def _should_compact(self) -> bool:
        return self.num_segments > MAX_SEGMENTS

    def _after_write(self) -> None:
        """Trigger rolls outside the writer lock."""
        if self._compactor is not None:
            if self._should_flush() or self._should_compact():
                self._wake.set()
            return
        if self._should_flush():
            self.flush()
        if self._should_compact():
            self.compact()

    # ------------------------------------------------------------------
    # Installs (tier flips)
    # ------------------------------------------------------------------
    def _refresh_view_locked(self) -> None:
        active, tier = self._active, self._active_tier
        if tier is None or tier.index is not active:
            tier = self._active_tier = Tier(
                active.doc_lo, None, active.generation,
                active, active.rank_docs, "memtable",
            )
        self._view._install((*self._segments, tier))

    def _run_install(self, commit):
        """Run ``commit`` (a tier flip) and re-point the engine over its
        outcome, as the writer: in-flight queries drain, the flip
        happens, and the next query reads the new tiers — none ever
        spans both.  A ``commit`` returning ``None`` changed nothing."""
        with self._writer():
            outcome = commit()
            if outcome is not None:
                self._refresh_view_locked()
            return outcome

    def _seal(self):
        """Freeze the active memtable into a sealed tier, caught up so
        that the fold only merges; rotate the WAL."""
        def commit():
            if self._closed or len(self._active) == 0:
                return None
            old = self._active
            sealed = Tier(
                old.doc_lo, old.doc_hi, old.generation,
                old.catch_up(), old.rank_docs, "memtable",
                fingerprints=self._active_tier.fingerprints,
            )
            self._segments.append(sealed)
            self._generation += 1
            self._active = Memtable(
                old.doc_hi, self._generation, self.params, self.scheme
            )
            if self._wal is not None:
                self._wal.close()
                self._wal = WriteAheadLog(
                    self.directory / wal_name(self._generation),
                    fsync=self.fsync,
                )
            if self.directory is not None:
                self._snapshot = _SealedSnapshot(
                    header=_sealed_header(self.data),
                    order=_order_prefix(self.order),
                    tombstones=set(self.removed),
                    next_doc_id=old.doc_hi,
                    wal_generation=self._generation,
                )
            return sealed

        return self._run_install(commit)

    def flush(self):
        """Seal the memtable and fold every sealed tier into a segment.

        Returns the new segment's generation, or None when there was
        nothing to fold.  Safe to call concurrently with writes and
        queries; folds serialize among themselves.  A closed store
        raises :class:`~repro.errors.IndexStateError`, like every other
        mutation.
        """
        with self._fold_lock:
            self._check_open()
            self._seal()
            pending = [t for t in self._segments if t.kind == "memtable"]
            if not pending:
                return None
            generation = self._fold_and_install(pending)
            self.metrics.counter("ingest.flushes").inc()
            return generation

    def compact(self):
        """Fold *all* tiers (after sealing) into one segment covering
        the whole corpus, dropping tombstoned documents for good.  A
        closed store raises :class:`~repro.errors.IndexStateError`."""
        with self._fold_lock:
            self._check_open()
            self._seal()
            pending = list(self._segments)
            if not pending:
                return None
            span_removed = any(
                pending[0].doc_lo <= doc_id < pending[-1].doc_hi
                for doc_id in self.removed
            )
            if len(pending) == 1 and pending[0].kind == "segment" \
                    and not span_removed:
                return None  # already fully compact
            generation = self._fold_and_install(pending)
            self.metrics.counter("ingest.compactions").inc()
            return generation

    def _fold_and_install(self, pending) -> int:
        """Fold contiguous ``pending`` tiers (+tombstones) into one segment.

        Runs off-lock except for two brief critical sections (generation
        bump, install commit); callers hold the fold lock.
        """
        doc_lo = pending[0].doc_lo
        doc_hi = pending[-1].doc_hi
        with self._mutex:
            purged = {d for d in self.removed if doc_lo <= d < doc_hi}
        faults.inject(
            "ingest.compact", phase="fold", doc_lo=doc_lo, doc_hi=doc_hi
        )
        with get_tracer().span(
            "ingest.fold", doc_lo=doc_lo, doc_hi=doc_hi
        ) as fold_span, self.metrics.timer("ingest.fold_seconds").time():
            compact_index, packed = self._merge_tiers(pending, purged)
            postings = compact_index.num_postings
            dropped = sum(t.index.num_postings for t in pending) - postings
            fold_span.annotate(
                tiers=len(pending), postings=postings, dropped=dropped
            )
        self.metrics.counter("ingest.fold_postings_merged").inc(postings)
        self.metrics.counter("ingest.fold_postings_dropped").inc(dropped)
        with self._mutex:
            self._generation += 1
            generation = self._generation
        path = None
        fingerprints = self._joined_fingerprints(pending, purged)
        snapshot = self._snapshot
        if self.directory is not None:
            # No order: the manifest holds the store's one copy.
            segment_searcher = PKWiseSearcher.from_prebuilt(
                self.params, None, self.scheme, compact_index, packed
            )
            faults.inject(
                "ingest.compact", phase="segment", generation=generation
            )
            path = self.directory / generation_name(SEGMENT_STEM, generation)
            save_searcher(segment_searcher, path)
        new_tier = Tier(
            doc_lo, doc_hi, generation, compact_index, packed, "segment", path,
            fingerprints,
        )
        keep = [t for t in self._segments
                if not any(t is p for p in pending)]
        if self.directory is not None:
            faults.inject(
                "ingest.compact", phase="manifest", generation=generation
            )
            write_manifest(self.directory, ManifestState(
                params=self.params,
                order=snapshot.order,
                scheme=self.scheme,
                data=snapshot.header,
                segments=[
                    {
                        "file": t.path.name,
                        "doc_lo": t.doc_lo,
                        "doc_hi": t.doc_hi,
                        "generation": t.generation,
                    }
                    for t in keep + [new_tier]
                ],
                tombstones=snapshot.tombstones - purged,
                next_doc_id=snapshot.next_doc_id,
                wal_generation=snapshot.wal_generation,
                generation=generation,
            ))

        def commit():
            self._segments[:] = keep + [new_tier]
            self.removed -= purged
            return new_tier

        self._run_install(commit)
        if self.directory is not None:
            for gen, wal_path in wal_generations(self.directory):
                if gen < snapshot.wal_generation:
                    wal_path.unlink(missing_ok=True)
            for tier in pending:
                if tier.path is not None and tier.path != path:
                    tier.path.unlink(missing_ok=True)
        return generation

    def _joined_fingerprints(self, pending, purged) -> FingerprintTier | None:
        """The folded segment's routing fingerprints: the ``pending``
        tiers' own, each completed from its rank column, joined.  None
        when no tier has any yet, or when the fold purges documents, whose
        covers would outlive them; they are then built from the segment's
        rank column when first needed."""
        if purged or all(tier.fingerprints is None for tier in pending):
            return None
        return FingerprintTier.concatenated(
            [tier_fingerprints(tier, self.params.w) for tier in pending]
        )

    @staticmethod
    def _merge_tiers(tiers, removed=()):
        """Index and rank columns of contiguous ``tiers`` merged into one;
        ``removed`` documents (global ids in the span) become empty slots."""
        doc_lo = tiers[0].doc_lo
        removed = [doc_id - doc_lo for doc_id in removed]
        parts = [(tier.index, tier.doc_lo - doc_lo) for tier in tiers]
        rank_parts = [tier.rank_docs for tier in tiers]
        return (CompactIntervalIndex.merged(parts, removed),
                PackedRankDocs.concatenated(rank_parts, removed))

    def _write_initial_manifest(self) -> None:
        snapshot = self._snapshot
        write_manifest(self.directory, ManifestState(
            params=self.params,
            order=snapshot.order,
            scheme=self.scheme,
            data=snapshot.header,
            segments=[],
            tombstones=set(),
            next_doc_id=0,
            wal_generation=1,
            generation=1,
        ))

    # ------------------------------------------------------------------
    # Snapshot out
    # ------------------------------------------------------------------
    def compacted_searcher(self) -> PKWiseSearcher:
        """A standalone frozen searcher over every document (global ids).

        Tombstones carry over as tombstones (matching
        :meth:`~repro.core.pkwise.PKWiseSearcher.compacted` semantics); use
        :meth:`compact` first to drop them physically.
        """
        with self._fold_lock:
            with self._writer():
                # Under the write side: no add lands while the memtable
                # is caught up and its rank column is read.  The merge
                # below runs off it, over views of the column as it
                # stands now, which later appends do not reach.
                active = self._active
                tiers = self._segments + [Tier(
                    active.doc_lo, active.doc_hi, active.generation, active.catch_up(),
                    active.rank_docs.docs_from(0), "segment",
                )]
                removed = set(self.removed)
                epoch = self.mutation_epoch
            compact_index, packed = self._merge_tiers(tiers)
            return PKWiseSearcher.from_prebuilt(
                self.params, self.order, self.scheme, compact_index, packed,
                removed=removed, index_epoch=epoch,
            )

    # ------------------------------------------------------------------
    # Background compactor
    # ------------------------------------------------------------------
    def start_compactor(self) -> None:
        """Start the background thread that flushes and compacts once the
        memtable or the segment count passes its constant above."""
        with self._mutex:
            if self._compactor is not None or self._closed:
                return
            self._stop = False
            thread = threading.Thread(
                target=self._compactor_loop,
                name="repro-ingest-compactor",
                daemon=True,
            )
            self._compactor = thread
        thread.start()

    def stop_compactor(self) -> None:
        thread = self._compactor
        if thread is None:
            return
        self._stop = True
        self._wake.set()
        thread.join(timeout=COMPACTOR_STOP_TIMEOUT)
        self._compactor = None

    def _compactor_loop(self) -> None:
        while True:
            self._wake.wait(COMPACTOR_POLL_SECONDS)
            self._wake.clear()
            if self._stop:
                return
            try:
                if self._should_flush():
                    self.flush()
                if self._should_compact():
                    self.compact()
            except Exception as exc:  # keep serving; surface via metrics
                self.last_error = exc
                self.metrics.counter("ingest.compactor_errors").inc()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the compactor, wait out a fold in flight and close the
        WAL.  The engine keeps answering queries (the tiers are in
        memory) and keeps the store; the store lets go of the engine, so
        once the caller drops both they are freed by reference counting,
        not left to the cyclic collector."""
        self.stop_compactor()
        with self._fold_lock, self._writer():
            self._closed = True
            if self._wal is not None:
                self._wal.close()
            self._view = None

    def __repr__(self) -> str:
        return (
            f"IngestStore(docs={self.next_doc_id}, "
            f"segments={self.num_segments}, "
            f"memtable={len(self._active)}, "
            f"tombstones={len(self.removed)}, "
            f"{'durable' if self.directory else 'in-memory'})"
        )
