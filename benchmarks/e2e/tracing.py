"""Spans recorded from outside ``repro``, by wrapping public entry points.

The traced pass of ``run.py`` installs a timing wrapper around each
layer's public function for the duration of one pass, runs the workload's
operations under a root span each, and removes the wrappers again.  No
file of ``repro`` is touched: spans inside the program are a later change.

A span is ``(id, parent, op, name, start, end, calls, seconds)``.  A
layer's time is its spans' *self* time — seconds minus the seconds of
child spans — so the layer rows add up to the root spans by construction.  Calls made while
no root span is open (the oracle anchoring an engine, for instance) are
not recorded.

If a wrap target no longer exists the install raises
:class:`TraceTargetMissing` naming it; ``run.py`` exits non-zero rather
than report a silent 0 for that layer.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class TraceTargetMissing(RuntimeError):
    """An entry point the tracer wraps is gone from ``repro``."""


#: ``(module, owner class or None, attribute, span name, kind)``.  ``kind``
#: is ``"call"`` for plain functions and methods, ``"iter"`` for generator
#: functions (time is recorded inside each ``next()``).
TARGETS: list[tuple[str, str | None, str, str, str]] = [
    ("repro.corpus.collection", "DocumentCollection", "encode_query", "tokenize.encode", "call"),
    ("repro.corpus.collection", "DocumentCollection", "add_tokens", "tokenize.encode", "call"),
    ("repro.tokenize.tokenizer", "WhitespaceTokenizer", "tokenize", "tokenize.encode", "call"),
    ("repro.ordering.global_order", "GlobalOrder", "__init__", "ordering.build", "call"),
    ("repro.ordering.global_order", "GlobalOrder", "rank_document", "ordering.rank", "call"),
    ("repro.routing.fingerprints", "FingerprintTier", "survivors", "routing.survivors", "call"),
    ("repro.routing.fingerprints", "FingerprintTier", "from_rank_docs", "routing.fingerprint_build", "call"),
    ("repro.signatures.maintain", "SignatureStream", "events", "signatures.stream", "iter"),
    ("repro.index.interval_index", "IntervalIndex", "index_document", "index.build", "call"),
    ("repro.index.interval_index", "IntervalIndex", "probe_many", "index.probe", "call"),
    ("repro.index.compact", "CompactIntervalIndex", "probe_many", "index.probe", "call"),
    ("repro.index.compact", "CompactIntervalIndex", "from_index", "index.compact", "call"),
    ("repro.index.compact", "PackedRankDocs", "from_lists", "index.compact", "call"),
    ("repro.index.compact", "PackedRankDocs", "__getitem__", "index.rankdocs_decode", "call"),
    ("repro.ingest.tiered", "TieredIntervalIndex", "probe_many", "index.probe", "call"),
    ("repro.core.pkwise", None, "merge_intervals", "index.merge", "call"),
    ("repro.core.pkwise", "PKWiseSearcher", "search", "core.search", "call"),
    ("repro.core.verify", "IntervalVerifier", "advance_to", "core.verify_advance", "call"),
    ("repro.core.verify", "IntervalVerifier", "verify_interval", "core.verify", "call"),
    ("repro.ingest.store", "IngestStore", "add_text", "ingest.add", "call"),
    ("repro.ingest.store", "IngestStore", "remove", "ingest.remove", "call"),
    ("repro.ingest.store", "IngestStore", "flush", "ingest.flush", "call"),
    ("repro.ingest.store", "IngestStore", "compact", "ingest.compact", "call"),
    ("repro.ingest.store", None, "save_searcher", "persistence.save", "call"),
    ("repro.ingest.store", None, "load_bundle", "persistence.open", "call"),
    ("repro.ingest.wal", "WriteAheadLog", "append", "ingest.wal_append", "call"),
    ("repro.ingest.memtable", "Memtable", "add", "ingest.memtable_add", "call"),
]


class Tracer:
    """In-memory span recorder with self-time accounting.

    A span that made no traced calls itself (a leaf: one ``verify_interval``,
    one ``next()`` of the signature stream) is not stored on its own —
    a query makes thousands — but folded into one record per name under
    its parent, carrying the number of calls and their summed seconds.
    """

    def __init__(self) -> None:
        #: ``(id, parent, op, name, start, end, calls, seconds)``
        self.spans: list[tuple] = []
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.total_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.max_seconds: dict[str, float] = defaultdict(float)
        self.root_seconds: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self.next_id = 0
        self._op = None
        self._installed: list[tuple] = []

    # -- recording ------------------------------------------------------
    def push(self, name: str) -> None:
        # frame: id, name, start, seconds in children, folded leaves
        self._stack.append([self.next_id, name, time.perf_counter(), 0.0, None])
        self.next_id += 1

    def pop(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child_seconds, leaves = self._stack.pop()
        duration = end - start
        self.self_seconds[name] += duration - child_seconds
        self.total_seconds[name] += duration
        self.calls[name] += 1
        if duration > self.max_seconds[name]:
            self.max_seconds[name] = duration
        parent = -1
        if self._stack:
            frame = self._stack[-1]
            parent = frame[0]
            frame[3] += duration
            if child_seconds == 0.0 and leaves is None:
                if frame[4] is None:
                    frame[4] = {}
                folded = frame[4].get(name)
                if folded is None:
                    frame[4][name] = [1, duration, start, end]
                else:
                    folded[0] += 1
                    folded[1] += duration
                    folded[3] = end
                return
        else:
            self.root_seconds[name] += duration
        self.spans.append((span_id, parent, self._op, name, start, end, 1, duration))
        for leaf, (calls, seconds, first, last) in (leaves or {}).items():
            self.spans.append(
                (self.next_id, span_id, self._op, leaf, first, last, calls, seconds)
            )
            self.next_id += 1

    @contextmanager
    def root(self, name: str, op):
        """The root span of operation ``op``."""
        self._op = op
        self.push(name)
        try:
            yield
        finally:
            self.pop()
            self._op = None

    def total_self_seconds(self) -> float:
        return sum(self.self_seconds.values())

    def total_root_seconds(self) -> float:
        return sum(self.root_seconds.values())

    # -- wrapping -------------------------------------------------------
    def install(self, targets=None) -> None:
        """Wrap every target; raises :class:`TraceTargetMissing` if one is gone."""
        resolved = []
        for module_name, owner_name, attribute, span_name, kind in (
            TARGETS if targets is None else targets
        ):
            label = ".".join(p for p in (module_name, owner_name, attribute) if p)
            try:
                owner = importlib.import_module(module_name)
                if owner_name is not None:
                    owner = getattr(owner, owner_name)
                original = owner.__dict__[attribute]
            except (ImportError, AttributeError, KeyError):
                raise TraceTargetMissing(
                    f"trace target {label} no longer exists; update "
                    f"benchmarks/e2e/tracing.py TARGETS"
                ) from None
            resolved.append((owner, attribute, original, span_name, kind))
        for owner, attribute, original, span_name, kind in resolved:
            function = original
            rebind = None
            if isinstance(original, (classmethod, staticmethod)):
                function = original.__func__
                rebind = type(original)
            wrapper = (self._wrap_iter if kind == "iter" else self._wrap_call)(
                function, span_name
            )
            setattr(owner, attribute, rebind(wrapper) if rebind else wrapper)
            self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def _wrap_call(self, function, name):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._stack:
                return function(*args, **kwargs)
            tracer.push(name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.pop()

        traced.__wrapped__ = function
        return traced

    def _wrap_iter(self, function, name):
        tracer = self

        def traced(*args, **kwargs):
            inner = function(*args, **kwargs)
            if not tracer._stack:
                yield from inner
                return
            while True:
                tracer.push(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.pop()
                yield item

        traced.__wrapped__ = function
        return traced

    # -- output ---------------------------------------------------------
    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")
