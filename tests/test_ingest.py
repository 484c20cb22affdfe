"""Tests for the LSM streaming-ingestion write path (:mod:`repro.ingest`).

The contract under test, end to end:

* **Exactness for any interleaving** — a store mutated by any sequence
  of adds / removes / flushes / compactions, and reopened from its WAL,
  returns the reference pairs over the final collection state
  (Theorem 1: the shared global order makes tier boundaries invisible
  to the result set): the ``live`` and ``reopen`` cells of
  ``test_exactness.py``, crossed with storage, routing and execution.
  Here a fold is pinned column for column against a rebuild.
* **Serving never stops** — an install commits under the write side of
  the store's own lock, a query holds the read side for its whole run;
  queries interleaved with a mutation storm (behind a service or
  standalone) see zero :class:`~repro.errors.ServiceOverloadError`, no pair
  from a removed document, and per-thread epochs only move forward.
* **Crash safety** — segment files and the manifest are persisted
  before the in-memory flip; dying at any ``ingest.compact`` phase (or
  mid-WAL-append) loses nothing that was acknowledged: reopen replays
  the WAL and reproduces the pre-crash result set exactly.
"""

from __future__ import annotations

import gc
import itertools
import os
import pathlib
import pickle
import random
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro import SearchParams, faults
from repro.core.pkwise import PKWiseSearcher, default_scheme
from repro.corpus import Document, DocumentCollection
from repro.errors import (
    FaultInjectionError,
    IndexStateError,
    ServiceOverloadError,
)
from repro.eval.harness import canonical_pair_order
from repro.faults import KILL_EXIT_CODE, FaultPlan, FaultSpec
from repro.index import compact as compact_module
from repro.index.compact import CompactIntervalIndex, PackedRankDocs
from repro.index.interval_index import IntervalIndex
from repro.ingest import IngestStore, read_wal, wal_generations
from repro.ingest import store as ingest_store
from repro.ingest.manifest import read_manifest, write_manifest
from repro.ingest.memtable import Memtable, RankColumn
from repro.ordering import GlobalOrder
from repro.ordering.global_order import OOV_RANK
from repro.ingest.tiered import Tier
from repro.persistence import PersistenceError
from repro.service import SearchService
from repro.signatures import bulk
from repro.signatures.maintain import SignatureStream

from .conftest import (
    PerTokenOrder,
    admitted_ranks,
    expected_pairs,
    pairs_as_set,
    reference_index,
    serving,
)

PARAMS = SearchParams(w=8, tau=2, k_max=2)
VOCAB = 40
DOC_LEN = 36

#: Absolute src/ path so crash-test subprocesses import this checkout.
SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parent.parent)


def make_tokens(rng, length=DOC_LEN):
    return [f"t{rng.randrange(VOCAB)}" for _ in range(length)]


def make_query(data, rng, length=24):
    return data.encode_query_tokens(make_tokens(rng, length))


def store_pairs(store, query):
    return canonical_pair_order(store.searcher().search(query).pairs)


def reference(texts, live_ids, query_tokens):
    """The reference pairs, in canonical order, over the full text
    history with every id outside ``live_ids`` removed."""
    data = DocumentCollection()
    for tokens in texts:
        data.add_tokens(tokens)
    removed = set(range(len(texts))) - set(live_ids)
    return sorted(expected_pairs(data, data.encode_query_tokens(query_tokens),
                                 PARAMS.w, PARAMS.tau, removed=removed))


def wal_records(directory):
    return [
        record
        for _gen, path in wal_generations(directory)
        for record in read_wal(path)[0]
    ]


class TestStoreBasics:
    def test_policy_triggers_synchronous_flush(self, monkeypatch):
        rng = random.Random(2)
        monkeypatch.setattr(ingest_store, "MEMTABLE_MAX_DOCS", 3)
        monkeypatch.setattr(ingest_store, "MAX_SEGMENTS", 2)
        store = IngestStore.create(PARAMS, data=DocumentCollection())
        for _ in range(10):
            store.add_tokens(make_tokens(rng))
        assert store.memtable_docs < 10  # rolls happened automatically
        assert store.num_segments >= 1
        query = make_query(store.data, rng)
        got = store_pairs(store, query)
        store.compact()
        assert store_pairs(store, query) == got
        store.close()

    def test_live_query_is_one_kernel_pass(self):
        # A live view is the kernel itself: one signature stream, one
        # verifier, pairs in kernel order -- not two sub-searches whose
        # query-side work is summed.
        from repro.ingest.searcher import LSMSearcher

        assert LSMSearcher._search is PKWiseSearcher._search
        rng = random.Random(3)
        store = IngestStore.create(PARAMS, data=DocumentCollection())
        texts = [make_tokens(rng) for _ in range(9)]
        shared = texts[1][4:28]
        texts[4][6:30] = shared  # a frozen and ...
        texts[7][2:26] = shared  # ... a memtable document both match
        for tokens in texts[:6]:
            store.add_tokens(tokens)
        store.remove(2)
        store.flush()
        for tokens in texts[6:]:
            store.add_tokens(tokens)
        assert store.num_segments == 1 and store.memtable_docs == 3
        # One-shot build under the store's order and scheme, so the
        # query-side counters are comparable and not only the pairs.
        ref = PKWiseSearcher(
            store.data, PARAMS, scheme=store.scheme, order=store.order
        )
        ref._remove_document(2)
        query = store.data.encode_query_tokens(shared)
        got = store.searcher().search(query)
        want = ref.search(query)
        assert {pair.doc_id for pair in got.pairs} >= {1, 4, 7}
        assert got.pairs == want.pairs  # same pairs, same (kernel) order
        for field in ("signatures_generated", "changed_windows",
                      "candidate_windows", "num_results"):
            assert getattr(got.stats, field) == getattr(want.stats, field)
        store.close()

class TestInterleavingProperty:
    """Writes and folds interleaved with queries on other threads."""

    def test_interleaving_under_live_service_traffic(self):
        rng = random.Random(99)
        data = DocumentCollection()
        store = IngestStore.create(PARAMS, data=data)
        seed_texts = [make_tokens(rng) for _ in range(6)]
        for tokens in seed_texts:
            store.add_tokens(tokens)
        service = SearchService(
            repro.Index(store.searcher(), data), max_workers=2, max_queue=256
        )
        queries = [make_query(data, rng) for _ in range(4)]
        overloads: list[Exception] = []
        errors: list[Exception] = []
        epochs: list[list[int]] = [[] for _ in queries]
        stop = threading.Event()

        def reader(slot: int, query) -> None:
            while not stop.is_set():
                try:
                    response = service.search(query)
                except ServiceOverloadError as exc:
                    overloads.append(exc)
                    continue
                except Exception as exc:  # noqa: BLE001 - collected
                    errors.append(exc)
                    continue
                epochs[slot].append(response.index_epoch)

        threads = [
            threading.Thread(target=reader, args=(slot, query))
            for slot, query in enumerate(queries)
        ]
        for thread in threads:
            thread.start()
        texts = list(seed_texts)
        live_ids = list(range(len(seed_texts)))
        try:
            for _step in range(30):
                op = rng.random()
                if op < 0.55 or not live_ids:
                    tokens = make_tokens(rng)
                    live_ids.append(store.add_tokens(tokens))
                    texts.append(tokens)
                elif op < 0.7:
                    victim = rng.choice(live_ids)
                    live_ids.remove(victim)
                    store.remove(victim)
                elif op < 0.85:
                    store.flush()
                else:
                    store.compact()
        finally:
            stop.set()
            for thread in threads:
                thread.join()
            service.close()
        assert not overloads, overloads  # serving never blocked on folds
        assert not errors, errors
        for per_query in epochs:
            assert per_query == sorted(per_query)  # epochs only move up
        # The final state is exact against a one-shot build.
        for query_tokens in (make_tokens(rng, 24) for _ in range(3)):
            got = store_pairs(
                store, store.data.encode_query_tokens(query_tokens)
            )
            assert got == reference(texts, live_ids, query_tokens)
        store.close()

    def test_standalone_query_across_a_fold_is_exact(self, monkeypatch):
        # No SearchService anywhere: the store's own lock is all that
        # keeps a fold from purging tombstones under a running query.
        rng = random.Random(5)
        texts = [make_tokens(rng, 120) for _ in range(6)]
        store = IngestStore.create(PARAMS, data=DocumentCollection())
        for tokens in texts:
            store.add_tokens(tokens)
        store.flush()
        store.remove(0)
        want = reference(texts, range(1, 6), texts[0])
        parked, folded = threading.Event(), threading.Event()
        windows = itertools.count()

        def park_after_three_windows() -> bool:
            if next(windows) == 2:
                parked.set()
                folded.wait(0.5)  # times out: the fold waits for this query
            return False

        def compactor() -> None:
            parked.wait(5)
            store.compact()
            folded.set()

        thread = threading.Thread(target=compactor)
        thread.start()
        query = store.data.encode_query_tokens(texts[0])
        got = store.searcher().search(query, cancel=park_after_three_windows)
        thread.join(5)
        assert not thread.is_alive() and folded.is_set()
        assert not store.removed  # the compaction did purge document 0
        assert all(pair.doc_id != 0 for pair in got.pairs)
        assert canonical_pair_order(got.pairs) == want
        store.close()

        # Second case: the facade with its background compactor, one
        # writer thread, the main thread querying throughout.
        base = make_tokens(rng, 40)
        variants = []
        for _ in range(24):
            tokens = list(base)
            tokens[rng.randrange(len(tokens))] = "edit"
            variants.append(tokens)

        def by_document(pairs) -> dict[int, list]:
            grouped: dict[int, list] = {}
            for pair in sorted(map(tuple, pairs)):
                grouped.setdefault(pair[0], []).append(pair)
            return grouped

        pairs_of = by_document(reference(variants, range(len(variants)), base))
        assert len(pairs_of) == len(variants)
        monkeypatch.setattr(ingest_store, "MEMTABLE_MAX_DOCS", 4)
        monkeypatch.setattr(ingest_store, "MAX_SEGMENTS", 1)
        index = repro.Index.open_live(params=PARAMS, background=True)
        store = index.searcher().store
        added: list[int] = []  # ids whose add() has returned
        removing: list[int] = []  # ids whose remove() has been called
        removed: list[int] = []  # ids whose remove() has returned
        failures: list[BaseException] = []

        def writer() -> None:
            try:
                for step, tokens in enumerate(variants):
                    added.append(index.add(" ".join(tokens)))
                    if step % 3 == 2:
                        removing.append(added[-2])
                        index.remove(added[-2])
                        removed.append(added[-2])
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        thread = threading.Thread(target=writer)
        deadline = time.monotonic() + 30
        try:
            thread.start()
            # ... until the writer is done and the compactor has folded.
            while thread.is_alive() or not store.num_segments:
                assert time.monotonic() < deadline
                visible, gone = set(added), set(removed)
                got = index.search(index.data.encode_query_tokens(base))
                by_doc = by_document(got.pairs)
                # Every document is in a reply whole or not at all ...
                for doc_id, pairs in by_doc.items():
                    assert pairs == pairs_of[doc_id]
                # ... in, if added before the query and not being removed
                # by its end; out, if removed before it started.
                assert visible - set(removing) <= by_doc.keys()
                assert not gone & by_doc.keys()
        finally:
            thread.join(30)
            sys.setswitchinterval(interval)
        assert not thread.is_alive() and not failures, failures
        assert len(added) == len(variants)
        assert store.last_error is None
        index.close()


@contextmanager
def no_signature_streams():
    """Fail if the block signatures any document (a fold must not)."""
    with mock.patch.object(
        SignatureStream, "events",
        side_effect=AssertionError("a fold ran the signature stream"),
    ) as spy:
        yield
    assert spy.call_count == 0


def zipf_tokens(rng, length):
    return [
        f"t{min(VOCAB, int(rng.paretovariate(1.2))) - 1}" for _ in range(length)
    ]


def scratch_columns(store, ranks_of, doc_lo, doc_hi, dead):
    """Columns of a from-scratch build over ``[doc_lo, doc_hi)`` with the
    ``dead`` documents indexed as empty slots (what a fold must equal)."""
    index = IntervalIndex(PARAMS.w, PARAMS.tau, store.scheme)
    rank_lists = [
        [] if doc_id in dead else ranks_of[doc_id]
        for doc_id in range(doc_lo, doc_hi)
    ]
    for local, ranks in enumerate(rank_lists):
        index.index_document(local, ranks)
    return (
        CompactIntervalIndex.from_index(index).to_arrays()[1],
        PackedRankDocs.from_lists(rank_lists).to_arrays(),
    )


def assert_same_columns(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name


def postings_by_key(columns):
    """``key -> sorted (doc, u, v)`` — order-free view of one index."""
    offsets = columns["offsets"].tolist()
    rows = list(zip(
        columns["docs"].tolist(), columns["us"].tolist(), columns["vs"].tolist()
    ))
    return {
        key: sorted(rows[offsets[i]:offsets[i + 1]])
        for i, key in enumerate(columns["keys"].tolist())
    }


def run_fold_ops(ops, check_fold):
    """Apply ``ops`` to a fresh store; after every flush/compact that
    folded, call ``check_fold(store, ranks_of, segment, dead)``."""
    store = IngestStore.create(PARAMS, data=DocumentCollection())
    ranks_of: list[list[int]] = []
    dead: set[int] = set()
    try:
        for op, arg in ops:
            if op == "add":
                length, seed = arg
                doc_id = store.add_tokens(zipf_tokens(random.Random(seed), length))
                ranks_of.append(
                    store.order.rank_document(store.data.documents[doc_id])
                )
            elif op == "remove":
                if ranks_of:
                    store.remove(arg % len(ranks_of))
                    dead.add(arg % len(ranks_of))
            else:
                with no_signature_streams():
                    folded = getattr(store, op)()
                if folded is not None:
                    check_fold(store, ranks_of, store._segments[-1], dead)
        with no_signature_streams():
            frozen = store.compacted_searcher()
        # Tombstones stay tombstones in a snapshot; only slots an
        # earlier fold emptied are empty.
        check_fold(
            store, ranks_of,
            Tier(0, len(ranks_of), 0, frozen.index, frozen.rank_docs, "segment"),
            dead - store.removed,
        )
    finally:
        store.close()


#: ``(token count, token seed)`` — lengths straddle ``w`` (8), 0 included.
ADD_ARG = st.tuples(st.integers(0, 30), st.integers(0, 10_000))
FOLD_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), ADD_ARG),
        st.tuples(st.just("add"), ADD_ARG),  # twice: adds outweigh the rest
        st.tuples(st.just("remove"), st.integers(0, 63)),
        st.tuples(st.just("flush"), st.none()),
        st.tuples(st.just("compact"), st.none()),
    ),
    max_size=30,
)


class TestFoldIsMerge:
    """A fold concatenates tier columns; it never re-signatures, and the
    result is the from-scratch build over the surviving documents."""

    @staticmethod
    def check_exact(store, ranks_of, segment, dead):
        want_index, want_ranks = scratch_columns(
            store, ranks_of, segment.doc_lo, segment.doc_hi, dead
        )
        assert_same_columns(segment.index.to_arrays()[1], want_index)
        assert_same_columns(segment.rank_docs.to_arrays(), want_ranks)

    @settings(max_examples=40, deadline=None)
    @given(ops=FOLD_OPS)
    # A document shorter than w, then a flush with an empty memtable.
    @example(ops=[("add", (5, 0)), ("flush", None), ("flush", None),
                  ("compact", None)])
    # Every document in the folded span is tombstoned.
    @example(ops=[("add", (20, 1)), ("add", (20, 2)), ("remove", 0),
                  ("remove", 1), ("flush", None), ("add", (20, 3)),
                  ("remove", 2), ("compact", None)])
    def test_fold_equals_rebuild(self, ops):
        run_fold_ops(ops, self.check_exact)

    def test_colliding_hashes_merge_as_multisets(self, monkeypatch):
        def colliding(signatures, lengths=None):
            # Both forms of signature_hashes: tuples (the dict reference's
            # freeze), or a rank matrix plus lengths (the memtable's bulk
            # catch-up), so colliding keys reach the fold through columns.
            if lengths is not None:
                signatures = [row[:n] for row, n in
                              zip(signatures.tolist(), lengths.tolist())]
            return np.asarray([sum(sig) % 5 for sig in signatures], dtype=np.uint32)

        monkeypatch.setattr(compact_module, "signature_hashes", colliding)

        def check(store, ranks_of, segment, dead):
            want_index, want_ranks = scratch_columns(
                store, ranks_of, segment.doc_lo, segment.doc_hi, dead
            )
            got_index = segment.index.to_arrays()[1]
            assert np.array_equal(got_index["keys"], want_index["keys"])
            assert np.array_equal(got_index["offsets"], want_index["offsets"])
            assert postings_by_key(got_index) == postings_by_key(want_index)
            assert_same_columns(segment.rank_docs.to_arrays(), want_ranks)

        rng = random.Random(5)
        ops = []
        for _ in range(4):
            ops += [("add", (24, rng.randrange(10_000))) for _ in range(3)]
            ops += [("remove", rng.randrange(64)), ("flush", None)]
        run_fold_ops(ops + [("compact", None)], check)

    def test_fold_counters_report_merged_and_dropped_postings(self):
        rng = random.Random(7)
        store = IngestStore.create(PARAMS, data=DocumentCollection())
        for _ in range(4):
            store.add_tokens(make_tokens(rng))
        store.flush()
        merged = store._segments[-1].index.num_postings
        counters = store.metrics_snapshot()["counters"]
        assert counters["ingest.fold_postings_merged"] == merged
        assert counters["ingest.fold_postings_dropped"] == 0
        store.remove(0)
        store.compact()
        kept = store._segments[-1].index.num_postings
        counters = store.metrics_snapshot()["counters"]
        assert counters["ingest.fold_postings_merged"] == merged + kept
        assert counters["ingest.fold_postings_dropped"] == merged - kept > 0
        store.close()


def assert_same_index(got, want):
    """Equal columns (dtypes and bytes) and equal meta: the document and
    window counts and ``build_stats``."""
    assert got.to_arrays()[0] == want.to_arrays()[0]
    assert_same_columns(got.to_arrays()[1], want.to_arrays()[1])


def memtable_reference(store, memtable):
    """``from_index`` of the dict build over ``memtable``'s documents,
    indexed one at a time by Algorithm 5's stream."""
    documents = SimpleNamespace(
        params=store.params, scheme=store.scheme, rank_docs=memtable.rank_docs
    )
    return CompactIntervalIndex.from_index(reference_index(documents))


class TestMemtableCatchUp:
    """An add appends to the rank column; the memtable indexes what is pending
    in one array pass when a query or a seal finds it behind, and its
    columns are the freeze of the dict build over the same documents."""

    @pytest.mark.parametrize("block_cells", [None, 16], ids=["one-block", "seams"])
    def test_bursts_equal_the_dict_build(self, block_cells):
        # Lengths 0..30 straddle w (8); 16 cells are two windows a block,
        # so blocks cut documents and runs cross seams.
        rng = random.Random(11)
        store = IngestStore.create(PARAMS, data=DocumentCollection())
        memtable = store._active
        query = make_query(store.data, rng)
        with mock.patch.object(bulk, "_BLOCK_CELLS", block_cells or bulk._BLOCK_CELLS):
            assert_same_index(memtable.columns, memtable_reference(store, memtable))
            for burst in (1, 2, 7, 100):
                for _ in range(burst):
                    store.add_tokens(zipf_tokens(rng, rng.randrange(31)))
                assert memtable.behind
                store.searcher().search(query)
                assert not memtable.behind
                assert_same_index(memtable.columns, memtable_reference(store, memtable))
            assert any(len(ranks) < PARAMS.w for ranks in memtable.rank_docs)
            store.flush()
            empty = store._active
            store.searcher().search(query)
            assert len(empty) == 0 and not empty.behind
            assert_same_index(empty.columns, memtable_reference(store, empty))
        store.close()

    def test_a_sealed_memtable_is_whole(self):
        rng = random.Random(12)
        store = IngestStore.create(PARAMS, data=DocumentCollection())
        for _ in range(5):
            store.add_tokens(make_tokens(rng))
        memtable = store._active
        assert memtable.behind and memtable.columns.num_documents == 0
        store._seal()
        sealed = store._segments[-1]
        assert sealed.kind == "memtable" and sealed.index is memtable.columns
        assert not memtable.behind
        assert_same_index(sealed.index, memtable_reference(store, memtable))
        with no_signature_streams(), mock.patch.object(
            Memtable, "catch_up", side_effect=AssertionError("a fold caught up")
        ):
            assert store.flush() is not None
        store.close()

    def test_a_live_probe_writes_nothing(self):
        rng = random.Random(13)
        store = IngestStore.create(PARAMS, data=DocumentCollection())
        view = store.searcher()
        query = make_query(store.data, rng)
        for _ in range(3):
            store.add_tokens(make_tokens(rng))
        view.search(query)
        for _ in range(2):
            store.add_tokens(make_tokens(rng))
        memtable = store._active
        columns = memtable.columns
        copies = {name: column.copy() for name, column in columns.to_arrays()[1].items()}
        held = list(reference_index(view)._postings)
        assert view.index.probe_many(held).entries == columns.num_postings
        assert memtable.columns is columns and memtable.behind
        view.search(query)  # behind: the write side, columns replaced
        caught = memtable.columns
        assert caught is not columns and not memtable.behind
        for name, column in columns.to_arrays()[1].items():
            assert column.tobytes() == copies[name].tobytes(), name
        view.search(query)  # caught up: the read side, nothing replaced
        assert memtable.columns is caught
        store.close()

    def test_racing_queries_catch_up_exactly(self):
        # A writer and three query threads on fewer cores: whichever
        # query finds the memtable behind catches it up under the write
        # side.  Each reply holds a document whole or not at all, and
        # every document whose add returned before the query started.
        rng = random.Random(14)
        base = make_tokens(rng, 40)
        texts = [base]
        for _ in range(30):
            tokens = list(base)
            tokens[rng.randrange(len(tokens))] = "edit"
            texts.append(tokens)
        pairs_of: dict[int, list] = {}
        for pair in reference(texts, range(len(texts)), base):
            pairs_of.setdefault(pair[0], []).append(pair)
        store = IngestStore.create(PARAMS, data=DocumentCollection())
        store.add_tokens(base)  # every query token is in the vocabulary
        query = store.data.encode_query_tokens(base)
        added, failures = [0], []
        done = threading.Event()

        def writer() -> None:
            try:
                for tokens in texts[1:]:
                    added.append(store.add_tokens(tokens))
                    time.sleep(0.002)  # let queries in between adds
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)
            finally:
                done.set()

        def reader() -> None:
            try:
                while not done.is_set():
                    visible = set(added)
                    got: dict[int, list] = {}
                    for pair in sorted(map(tuple, store.searcher().search(query).pairs)):
                        got.setdefault(pair[0], []).append(pair)
                    assert all(pairs == pairs_of[doc] for doc, pairs in got.items())
                    assert visible <= got.keys()
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=writer))
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        assert len(added) == len(texts)
        store.searcher().search(query)
        memtable = store._active
        assert_same_index(memtable.columns, memtable_reference(store, memtable))
        store.close()

    def test_queries_that_find_it_behind_catch_up_once_then_read(self):
        # Both queries see the memtable behind while they hold the read
        # side together.  Each takes the write side in turn; the first
        # indexes the pending documents, the second finds nothing to do,
        # and neither runs its kernel under the write side.
        rng = random.Random(15)
        store = IngestStore.create(PARAMS, data=DocumentCollection())
        view = store.searcher()
        query = make_query(store.data, rng)
        for _ in range(3):
            store.add_tokens(make_tokens(rng))
        lock = store._lock
        both_looked = threading.Barrier(2, timeout=10)
        real_behind, real_kernel = Memtable.behind.fget, PKWiseSearcher._search
        writer_held, replies, failures = [], [], []

        def behind(memtable):
            seen = real_behind(memtable)
            both_looked.wait()
            return seen

        def kernel(searcher, *args):
            writer_held.append(lock._writer)
            return real_kernel(searcher, *args)

        def reader() -> None:
            try:
                replies.append(canonical_pair_order(view.search(query).pairs))
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        with mock.patch.object(Memtable, "behind", property(behind)), \
                mock.patch.object(PKWiseSearcher, "_search", kernel), \
                mock.patch.object(
                    CompactIntervalIndex, "from_rank_docs",
                    wraps=CompactIntervalIndex.from_rank_docs,
                ) as index_burst:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        assert index_burst.call_count == 1
        assert len(index_burst.call_args.args[0]) == 3
        assert writer_held == [False, False]
        assert replies[0] == replies[1] == store_pairs(store, query)
        store.close()

    def test_a_closed_live_index_is_freed_by_reference_counting(self):
        # Without the cyclic collector, only reference counts free a
        # closed store: the store lets go of its engine at close.
        gc.collect()
        gc.disable()
        try:
            index = repro.Index.open_live(None, PARAMS)
            index.add("a b c d e f g h i j k l")
            assert index.search_text("b c d e f g h i j").pairs
            store = index.searcher().store
            keys = weakref.ref(store._active.columns.to_arrays()[1]["keys"])
            index.close()
            with pytest.raises(IndexStateError, match="closed"):
                store.searcher()
            assert index.search_text("b c d e f g h i j").pairs  # still answers
            del index, store
            assert keys() is None
        finally:
            gc.enable()


class TestRankColumn:
    """An add ranks its token ids by one gather and appends them to the
    memtable's one rank column."""

    def test_a_full_memtable_holds_its_ranks_in_two_bytes_a_token(self):
        # 256 documents of int16 ranks: the column's room is at most
        # COLUMN_GROWTH (2) times what it holds, so at most 4 B a token
        # beyond the offsets.  A list per document held an 8-byte
        # pointer a token before any int object.
        rng = random.Random(23)
        data = DocumentCollection()
        for _ in range(4):
            data.add_tokens([f"t{rng.randrange(300)}" for _ in range(100)])
        order = GlobalOrder(data, PARAMS.w)
        columns = [
            order.rank_ids(np.fromiter(document.tokens, np.int64, len(document)))
            for document in (data[rng.randrange(4)] for _ in range(256))
        ]
        columns = [ranks[: rng.randrange(1, len(ranks))] for ranks in columns]
        scheme = default_scheme(PARAMS, order)
        tokens = sum(map(len, columns))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            memtable = Memtable(0, 1, PARAMS, scheme)
            for ranks in columns:
                memtable.add(ranks)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        offsets = memtable.rank_docs._offset_room.nbytes
        assert len(memtable) == 256 and memtable.total_tokens == tokens
        assert (held - offsets) / tokens <= 4
        assert list(memtable.rank_docs) == [ranks.tolist() for ranks in columns]

    def test_an_empty_store_ranks_as_one_token_at_a_time(self):
        # A store created empty has an order of universe 0: every id is
        # admitted lazily.  Repeated, new and known tokens rank as the
        # per-token definition does; an OOV query id takes OOV_RANK, not
        # the last admitted rank that numpy's table[-1] would read.
        store = IngestStore.create(PARAMS, data=DocumentCollection())
        order = store.order
        per_token = PerTokenOrder(order)
        texts = [["a", "b", "a", "c"], [], ["c", "d", "d", "e", "a"],
                 ["f"] * 9, ["g", "b", "h", "g", "f", "i"]]
        for tokens in texts:
            doc_id = store.add_tokens(tokens)
            want = per_token.rank_sequence(store.data[doc_id].tokens)
            assert store._active.rank_docs[doc_id] == want
        assert order.universe_size == 0 and admitted_ranks(order) == per_token.extra_ranks
        last = -order.num_admitted
        assert last == -9 and order.rank_sequence([8]) == [last]
        query = store.data.encode_query_tokens(["unseen", "i", "a", "gone", "i"])
        ranks = order.rank_document(query)
        assert ranks == per_token.rank_sequence(query.tokens)
        assert ranks[0] == ranks[3] == OOV_RANK != last and ranks[1] == ranks[4] == last
        assert admitted_ranks(order) == per_token.extra_ranks  # a query admits nothing
        store.close()

    def test_a_query_id_past_the_vocabulary_is_never_admitted(self, tmp_path):
        # A query's ids come from outside (HTTP ``token_ids``): an id past
        # every ranked one takes OOV_RANK, the rank table keeps its size,
        # and no MANIFEST written after it, nor a store reopened from it,
        # holds the id.
        store = IngestStore.create(PARAMS, data=DocumentCollection(), directory=tmp_path)
        store.add_tokens(list("abcdefghijkl"))
        order = store.order
        table, admitted = order._rank_of_token, admitted_ranks(order)
        query = Document(-1, [10**9, *store.data[0].tokens[:10], 2**62])
        got = pairs_as_set(store.searcher().search(query))
        assert got == expected_pairs(store.data, query, PARAMS.w, PARAMS.tau) != set()
        assert order._rank_of_token is table and admitted_ranks(order) == admitted
        store.flush()
        store.close()
        reopened = IngestStore.open(tmp_path)
        assert admitted_ranks(reopened.order) == admitted
        assert len(reopened.order._rank_of_token) <= 2 * len(admitted)
        reopened.close()

    def test_extend_onto_a_filled_column_widens_int16_offsets(self):
        # A packed block's offsets are int16 below 32,768 tokens; added to
        # a column's end past int16 they must not wrap.
        column = RankColumn()
        column.append(np.arange(40_000) % 7)
        block = PackedRankDocs.from_lists([[1, 2, 3], [], [4] * 30_000])
        assert block.to_arrays()["offsets"].dtype == np.int16
        column.extend(block)
        assert column.to_arrays()["offsets"].tolist() == [0, 40_000, 40_003, 40_003, 70_003]
        assert column[1] == [1, 2, 3] and column.doc_length(3) == 30_000

    def test_a_snapshot_of_the_live_index_keeps_out_later_adds(self, monkeypatch):
        # compacted_searcher merges off the write side: an add landing
        # meanwhile appends to the live column, not to the view it took.
        store = IngestStore.create(PARAMS, data=DocumentCollection())
        rng = random.Random(25)
        for _ in range(3):
            store.add_tokens(make_tokens(rng))
        merge = IngestStore._merge_tiers

        def racing(tiers, removed=()):
            store.add_tokens(make_tokens(rng))
            return merge(tiers, removed)

        monkeypatch.setattr(IngestStore, "_merge_tiers", staticmethod(racing))
        frozen = store.compacted_searcher()
        monkeypatch.undo()
        assert len(frozen.rank_docs) == frozen.index.num_documents == 3
        assert len(store._active) == 4
        store.close()

    def test_a_seal_writes_its_prefix_while_adds_go_on(self, tmp_path, monkeypatch):
        # The manifest is written off-lock, during the fold, from lengths
        # the seal took: adds that land meanwhile (a thousand new tokens,
        # past the room of the order's admitted column and table and of
        # the vocabulary) do not reach it, and a reopen replays them.
        directory = tmp_path / "store"
        store = IngestStore.create(PARAMS, directory=directory, data=DocumentCollection())
        rng = random.Random(24)
        for _ in range(5):
            store.add_tokens(make_tokens(rng))
        sealed_tokens = list(store.data.vocabulary)
        sealed_ranks = admitted_ranks(store.order)
        merge = IngestStore._merge_tiers

        def racing(tiers, removed=()):
            for batch in range(20):
                store.add_tokens([f"late{batch}.{at}" for at in range(50)])
            return merge(tiers, removed)

        monkeypatch.setattr(IngestStore, "_merge_tiers", staticmethod(racing))
        assert store.flush() is not None
        monkeypatch.undo()
        state = read_manifest(directory)
        assert list(state.data["vocabulary"]) == sealed_tokens
        assert admitted_ranks(state.order) == sealed_ranks
        assert len(store.data.vocabulary) == len(sealed_tokens) + 1000
        live_ranks = admitted_ranks(store.order)
        store.close()
        reopened = IngestStore.open(directory)
        assert admitted_ranks(reopened.order) == live_ranks
        assert list(reopened.data.vocabulary) == list(store.data.vocabulary)
        query = reopened.data.encode_query_tokens([f"late7.{at}" for at in range(20)])
        assert pairs_as_set(reopened.searcher().search(query)) == expected_pairs(
            reopened.data, query, PARAMS.w, PARAMS.tau
        )
        reopened.close()


class TestClosedStore:
    def test_every_mutation_raises_and_queries_still_answer(self):
        rng = random.Random(16)
        store = IngestStore.create(PARAMS, data=DocumentCollection())
        for _ in range(3):
            store.add_tokens(make_tokens(rng))
        store.flush()
        store.add_tokens(make_tokens(rng))
        view = store.searcher()
        query = make_query(store.data, rng)
        before = canonical_pair_order(view.search(query).pairs)
        store.close()
        for mutation in (
            lambda: store.add_tokens(make_tokens(rng)),
            lambda: store.remove(0),
            store.flush,
            store.compact,
        ):
            with pytest.raises(IndexStateError, match="closed"):
                mutation()
        assert store.num_segments == 1 and len(store._active) == 1
        assert canonical_pair_order(view.search(query).pairs) == before


class TestNoOpRemove:
    def test_repeat_remove_changes_nothing(self):
        rng = random.Random(8)
        store = IngestStore.create(PARAMS, data=DocumentCollection())
        for _ in range(4):
            store.add_tokens(make_tokens(rng))
        store.remove(1)
        state = (store.mutation_epoch,
                 store.metrics_snapshot()["counters"]["ingest.removes"])
        store.remove(1)  # still tombstoned
        assert (store.mutation_epoch,
                store.metrics_snapshot()["counters"]["ingest.removes"]) == state
        store.compact()
        assert not store.removed
        store.remove(1)  # purged by the compaction
        assert not store.removed
        assert store.mutation_epoch == state[0]
        assert store.compact() is None  # still fully compact
        store.close()

    def test_remove_in_a_segment_decodes_no_document(self, monkeypatch):
        # "Is it already empty?" is two offsets, not a document's ranks.
        rng = random.Random(10)
        store = IngestStore.create(PARAMS, data=DocumentCollection())
        for _ in range(4):
            store.add_tokens(make_tokens(rng))
        store.remove(0)
        store.flush()  # documents 0..3 now live in a segment, 0 emptied
        store.add_tokens(make_tokens(rng))

        def decoded(_self, doc_id):
            raise AssertionError(f"document {doc_id} decoded by a remove")

        monkeypatch.setattr(PackedRankDocs, "__getitem__", decoded)
        epoch = store.mutation_epoch
        store.remove(0)  # emptied by the fold: a no-op
        assert (store.mutation_epoch, store.removed) == (epoch, set())
        store.remove(2)  # segment-resident
        store.remove(4)  # in the memtable
        assert (store.mutation_epoch, store.removed) == (epoch + 2, {2, 4})
        monkeypatch.undo()
        store.close()

    def test_repeat_remove_writes_one_wal_record(self, tmp_path):
        rng = random.Random(9)
        directory = tmp_path / "store"
        store = IngestStore.create(
            PARAMS, directory=directory, data=DocumentCollection()
        )
        for _ in range(3):
            store.add_tokens(make_tokens(rng))
        store.remove(2)
        store.remove(2)
        store.close()
        records = wal_records(directory)
        assert [r["op"] for r in records] == ["add", "add", "add", "remove"]
        reopened = IngestStore.open(directory)
        assert reopened.removed == {2}
        assert reopened.metrics_snapshot()["counters"]["ingest.wal_replayed"] == 4
        epoch = reopened.mutation_epoch
        reopened.remove(2)  # still a no-op after replay
        reopened.compact()
        reopened.remove(2)
        assert not reopened.removed
        assert reopened.mutation_epoch == epoch
        assert "ingest.wal_records" not in reopened.metrics_snapshot()["counters"]
        reopened.close()


def drive_durable(directory, *, steps, seed=7):
    """Deterministic durable-store workload; returns the open store."""
    rng = random.Random(seed)
    if (directory / "MANIFEST").exists():
        store = IngestStore.open(directory)
    else:
        store = IngestStore.create(
            PARAMS, directory=directory, data=DocumentCollection()
        )
    live_ids: list[int] = []
    for _step in range(steps):
        op = rng.random()
        if op < 0.7 or not live_ids:
            live_ids.append(store.add_tokens(make_tokens(rng)))
        elif op < 0.85:
            victim = rng.choice(live_ids)
            live_ids.remove(victim)
            store.remove(victim)
        else:
            store.flush()
    return store, live_ids


class TestDurability:
    def test_open_interrupted_after_the_wal_closes_the_store(
        self, tmp_path, monkeypatch
    ):
        # A SIGTERM at `repro serve --live` start-up can land after the
        # new WAL is open: the half-opened store must be closed.
        directory = tmp_path / "store"
        store, _live = drive_durable(directory, steps=6)
        store.close()
        closed = []
        close = IngestStore.close
        monkeypatch.setattr(
            IngestStore, "close",
            lambda self: (closed.append(self), close(self))[1],
        )

        def interrupted(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(IngestStore, "start_compactor", interrupted)
        with pytest.raises(KeyboardInterrupt):
            IngestStore.open(directory, background=True)
        assert len(closed) == 1 and closed[0]._closed
        assert closed[0]._wal._handle.closed

    def test_torn_wal_tail_is_tolerated(self, tmp_path):
        directory = tmp_path / "store"
        store, _live = drive_durable(directory, steps=12)
        rng = random.Random(200)
        store.add_tokens(make_tokens(rng))  # guarantee a tail record
        docs_before = store.next_doc_id
        store.close()
        _gen, tail_path = wal_generations(directory)[-1]
        records, torn = read_wal(tail_path)
        assert not torn and records
        # Tear the last record mid-line, as a crash mid-append would.
        lines = tail_path.read_bytes().splitlines(keepends=True)
        torn_raw = b"".join(lines[:-1]) \
            + lines[-1][: max(1, len(lines[-1]) // 2)]
        tail_path.write_bytes(torn_raw)
        kept, torn_now = read_wal(tail_path)
        assert torn_now
        assert len(kept) == len(records) - 1
        reopened = IngestStore.open(directory)
        # Exactly the torn record is gone; every intact one replayed.
        lost = 1 if records[-1]["op"] == "add" else 0
        assert reopened.next_doc_id == docs_before - lost
        snap = reopened.metrics_snapshot()
        assert snap["counters"]["ingest.torn_wal_tails"] == 1
        reopened.close()

    def test_damaged_wal_middle_is_a_typed_error(self, tmp_path):
        directory = tmp_path / "store"
        store, _live = drive_durable(directory, steps=10)
        rng = random.Random(201)
        store.add_tokens(make_tokens(rng))
        store.add_tokens(make_tokens(rng))  # >= 2 records in the tail
        store.close()
        _gen, tail_path = wal_generations(directory)[-1]
        lines = tail_path.read_bytes().splitlines(keepends=True)
        assert len(lines) >= 2
        # Corrupt a record that is FOLLOWED by an intact one: that is
        # damage, not a torn tail, and must refuse loudly.
        lines[0] = b"garbage\tnothash\n"
        tail_path.write_bytes(b"".join(lines))
        with pytest.raises(PersistenceError, match="damaged"):
            read_wal(tail_path)
        with pytest.raises(PersistenceError):
            IngestStore.open(directory)

    def test_corrupt_manifest_is_a_typed_error(self, tmp_path):
        directory = tmp_path / "store"
        store, _live = drive_durable(directory, steps=8)
        store.flush()
        store.close()
        manifest = directory / "MANIFEST"
        raw = bytearray(manifest.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        manifest.write_bytes(bytes(raw))
        with pytest.raises(PersistenceError):
            IngestStore.open(directory)

    def test_short_segment_list_is_refused(self, tmp_path):
        # The segments are the only copy of the sealed documents: a
        # digest-valid manifest whose list stops short of next_doc_id
        # used to open and answer without them.
        directory = tmp_path / "store"
        store = IngestStore.create(PARAMS, directory=directory, data=DocumentCollection())
        rng = random.Random(9)
        for _ in range(6):
            store.add_tokens(make_tokens(rng))
        store.flush()
        store.close()
        state = read_manifest(directory)
        assert state.next_doc_id == 6 and state.segments
        state.segments = []
        write_manifest(directory, state)
        with pytest.raises(PersistenceError, match="does not tile the corpus"):
            IngestStore.open(directory)
        with pytest.raises(PersistenceError, match="does not tile the corpus"):
            repro.Index.open_live(directory)

    def test_segment_opens_through_its_store(self, tmp_path):
        directory = tmp_path / "store"
        store, live = drive_durable(directory, steps=8)
        store.flush()
        tokens = store.data.vocabulary.decode(store.data[live[0]].tokens)
        want = store_pairs(store, store.data.encode_query_tokens(tokens))
        store.close()
        (segment,) = directory.glob("segment.g*.idx")
        with pytest.raises(PersistenceError, match="Index.open_live"):
            repro.Index.open(segment)
        reopened = IngestStore.open(directory)
        assert store_pairs(reopened, reopened.data.encode_query_tokens(tokens)) == want
        reopened.close()

    def test_manifest_with_a_compaction_policy_opens(self, tmp_path):
        # 2.26-2.28 wrote the compaction thresholds into the header; the
        # thresholds are constants now and the key is ignored.
        from repro.ingest.manifest import MANIFEST_KIND, manifest_path
        from repro.persistence import read_envelope, write_envelope

        directory = tmp_path / "store"
        store, live = drive_durable(directory, steps=8)
        store.flush()
        tokens = store.data.vocabulary.decode(store.data[live[0]].tokens)
        want = store_pairs(store, store.data.encode_query_tokens(tokens))
        assert want
        store.close()
        path = manifest_path(directory)
        header, sections, _arrays = read_envelope(path, MANIFEST_KIND)
        assert "policy" not in header
        header["policy"] = {"memtable_max_docs": 2, "memtable_max_tokens": 9,
                            "max_segments": 1}
        write_envelope(path, MANIFEST_KIND, sections, header=header)
        reopened = IngestStore.open(directory)
        query = reopened.data.encode_query_tokens(tokens)
        assert store_pairs(reopened, query) == want
        for _ in range(3):
            reopened.add_tokens(tokens)
        assert reopened.memtable_docs == 3  # the stored thresholds are not read
        reopened.close()

    def test_manifest_size_does_not_grow_with_tokens(self, tmp_path):
        # Two stores over one vocabulary, one with 4x the documents: the
        # manifest is a header, so only the extra names may show.
        def manifest_bytes(name, docs):
            rng = random.Random(17)
            store = IngestStore.create(
                PARAMS, directory=tmp_path / name, data=DocumentCollection()
            )
            store.add_tokens([f"t{token}" for token in range(VOCAB)])
            for _ in range(docs - 1):
                store.add_tokens(make_tokens(rng))
            store.flush()
            names = read_manifest(tmp_path / name).data["names"]
            store.close()
            return (tmp_path / name / "MANIFEST").stat().st_size, names

        small, small_names = manifest_bytes("small", 40)
        large, large_names = manifest_bytes("large", 160)
        extra_names = len(pickle.dumps(large_names, pickle.HIGHEST_PROTOCOL)) - len(
            pickle.dumps(small_names, pickle.HIGHEST_PROTOCOL)
        )
        assert abs(large - small) <= extra_names + 1024

    def test_reopen_after_flush_remove_compact_decodes_no_document(
        self, tmp_path, monkeypatch
    ):
        from repro.corpus.collection import ColumnDocuments

        directory = tmp_path / "store"
        store = IngestStore.create(PARAMS, directory=directory, data=DocumentCollection())
        rng = random.Random(23)
        removed = set()
        for round_ in range(3):
            for _ in range(8):
                store.add_tokens(make_tokens(rng), name=f"r{round_}-{rng.random()}")
            victim = rng.randrange(store.next_doc_id)
            store.remove(victim)
            removed.add(victim)
            store.flush()
        store.compact()  # purges the tombstones so far
        for _ in range(5):
            store.add_tokens(make_tokens(rng))
        # A fold purges the tombstones in its span and keeps the others.
        first = min(set(range(8)) - removed)
        kept = {first, store.next_doc_id - 2}  # in the manifest, in the WAL
        for doc_id in (first, store.next_doc_id - 3):
            store.remove(doc_id)
            removed.add(doc_id)
        store.flush()  # two segments on disk
        store.remove(store.next_doc_id - 2)
        removed.add(store.next_doc_id - 2)
        store.add_tokens(make_tokens(rng))  # only in the WAL
        assert store.removed == kept
        live = [i for i in range(store.next_doc_id) if i not in removed]
        documents = {i: (store.data[i].tokens, store.data[i].name) for i in live}
        vocabulary = list(store.data.vocabulary)
        queries = [make_tokens(rng, 24) for _ in range(4)] + [
            list(store.data.vocabulary.decode(documents[live[0]][0]))
        ]
        before = [
            store_pairs(store, store.data.encode_query_tokens(q)) for q in queries
        ]
        store.close()

        def decode(self, doc_id):
            raise AssertionError(f"open decoded document {doc_id}")

        with monkeypatch.context() as patch:
            patch.setattr(ColumnDocuments, "__getitem__", decode)
            reopened = IngestStore.open(directory)
        assert reopened.num_segments == 2
        assert isinstance(reopened.data.documents, ColumnDocuments)
        assert reopened.removed == kept
        assert list(reopened.data.vocabulary) == vocabulary
        lengths = reopened.data.lengths()
        for doc_id, (tokens, name) in documents.items():
            document = reopened.data[doc_id]
            assert (document.tokens, document.name) == (tokens, name)
            assert lengths[doc_id] == len(tokens)
        after = [
            store_pairs(reopened, reopened.data.encode_query_tokens(q))
            for q in queries
        ]
        assert before[-1] and after == before
        exported = repro.Index(reopened.searcher(), reopened.data)
        exported.save(tmp_path / "export.idx")
        snapshot = repro.Index.open(tmp_path / "export.idx")
        assert [snapshot.data[i].tokens for i in live] == [
            documents[i][0] for i in live
        ]
        reopened.close()

    def test_text_and_token_records_reopen_to_identical_pairs(self, tmp_path):
        # add_text logs the text it was given, add_tokens its token list;
        # replay re-interns both in arrival order.
        directory = tmp_path / "store"
        store = IngestStore.create(PARAMS, directory=directory, data=DocumentCollection())
        rng = random.Random(31)
        documents = [make_tokens(rng) for _ in range(14)]
        for step, tokens in enumerate(documents):
            if step % 2:
                store.add_text(" ".join(tokens))
            else:
                store.add_tokens(tokens)
            if step == 6:
                store.flush()
        store.remove(3)
        store.remove(11)
        query_tokens = documents[9][:16] + documents[12][10:26]
        before = store_pairs(store, store.data.encode_query_tokens(query_tokens))
        vocabulary = list(store.data.vocabulary)
        store.close()
        shapes = {"text" in r for r in wal_records(directory) if r["op"] == "add"}
        assert shapes == {True, False}
        reopened = IngestStore.open(directory)
        assert list(reopened.data.vocabulary) == vocabulary
        assert (reopened.next_doc_id, reopened.removed) == (14, {3, 11})
        requery = reopened.data.encode_query_tokens(query_tokens)
        assert before and store_pairs(reopened, requery) == before
        reopened.close()

    def test_torn_text_record_tail_loses_one_document(self, tmp_path):
        directory = tmp_path / "store"
        store, _live = drive_durable(directory, steps=10)
        rng = random.Random(202)
        store.add_text(" ".join(make_tokens(rng)))
        docs_before = store.next_doc_id
        store.close()
        _gen, tail_path = wal_generations(directory)[-1]
        raw = tail_path.read_bytes()
        assert "text" in read_wal(tail_path)[0][-1]
        last = raw.rstrip(b"\n").rfind(b"\n") + 1
        tail_path.write_bytes(raw[: last + (len(raw) - last) // 2])
        reopened = IngestStore.open(directory)
        assert reopened.next_doc_id == docs_before - 1
        assert reopened.metrics_snapshot()["counters"]["ingest.torn_wal_tails"] == 1
        reopened.close()

    def test_replay_tokenizes_with_the_stores_tokenizer(self, tmp_path):
        # Case and punctuation survive only under this tokenizer: a replay
        # through any other would intern a different vocabulary.
        from repro.tokenize.tokenizer import WordTokenizer

        directory = tmp_path / "store"
        data = DocumentCollection(tokenizer=WordTokenizer(lowercase=False))
        store = IngestStore.create(PARAMS, directory=directory, data=data)
        rng = random.Random(41)
        words = [f"{rng.choice('tT')}{rng.randrange(20)}{rng.choice(['', ',', '.'])}"
                 for _ in range(6 * DOC_LEN)]
        texts = [" ".join(words[i:i + DOC_LEN]) for i in range(0, len(words), DOC_LEN)]
        for text in texts:
            store.add_text(text)
        query = " ".join(words[DOC_LEN + 4:DOC_LEN + 28])
        before = store_pairs(store, store.data.encode_query(query))
        vocabulary = list(store.data.vocabulary)
        store.close()  # every add exists only in the WAL
        assert [r["text"] for r in wal_records(directory)] == texts
        reopened = IngestStore.open(directory)
        assert list(reopened.data.vocabulary) == vocabulary
        assert before and store_pairs(reopened, reopened.data.encode_query(query)) == before
        reopened.close()

    @pytest.mark.parametrize(
        "record",
        [{"op": "add", "name": "x"}, {"op": "add", "text": 7}, {"op": "remove"}],
        ids=["add-without-text-or-tokens", "add-with-non-string-text",
             "remove-without-doc-id"],
    )
    def test_malformed_record_is_a_typed_error(self, tmp_path, record):
        from repro.ingest.wal import WriteAheadLog

        directory = tmp_path / "store"
        store, _live = drive_durable(directory, steps=4)
        store.close()
        _gen, tail_path = wal_generations(directory)[-1]
        wal = WriteAheadLog(tail_path)
        wal.append({"seq": 99, **record})  # digest-valid, shape-invalid
        wal.close()
        with pytest.raises(PersistenceError, match="seq=99"):
            IngestStore.open(directory)

    def test_orphan_segments_are_cleaned_at_open(self, tmp_path):
        directory = tmp_path / "store"
        store, _live = drive_durable(directory, steps=10)
        store.flush()
        store.close()
        orphan = directory / "segment.g000099.idx"
        orphan.write_bytes(b"leftover from a crashed compaction")
        reopened = IngestStore.open(directory)
        assert not orphan.exists()
        snap = reopened.metrics_snapshot()
        assert snap["counters"]["ingest.recovered_orphans"] == 1
        reopened.close()


CRASH_SCRIPT = """
import pathlib, sys
from repro.ingest import IngestStore
from repro.faults import FaultPlan, FaultSpec, install_plan

directory = pathlib.Path(sys.argv[1])
phase = sys.argv[2]
store = IngestStore.open(directory)
install_plan(FaultPlan([
    FaultSpec(point="ingest.compact", kind="kill", match={"phase": phase}),
]))
store.compact()  # dies here with KILL_EXIT_CODE
print("compaction survived the kill plan", file=sys.stderr)
sys.exit(3)
"""


class TestCrashRecovery:
    @pytest.mark.parametrize("phase", ["fold", "segment", "manifest"])
    def test_kill_mid_compaction_recovers_exactly(self, tmp_path, phase):
        directory = tmp_path / "store"
        store, live = drive_durable(directory, steps=18)
        rng = random.Random(5)
        # Guarantee the child's compaction has real work to do: a
        # memtable resident and a tombstone inside the folded span.
        store.add_tokens(make_tokens(rng))
        store.remove(live[0])
        query_tokens = make_tokens(rng, 24)
        before = store_pairs(
            store, store.data.encode_query_tokens(query_tokens)
        )
        docs_before = store.next_doc_id
        removed_before = set(store.removed)
        store.close()

        env = {**os.environ, "PYTHONPATH": SRC_DIR}
        proc = subprocess.run(
            [sys.executable, "-c", CRASH_SCRIPT, str(directory), phase],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == KILL_EXIT_CODE, proc.stderr

        reopened = IngestStore.open(directory)
        assert reopened.next_doc_id == docs_before
        assert reopened.removed == removed_before
        requery = reopened.data.encode_query_tokens(query_tokens)
        assert store_pairs(reopened, requery) == before
        # The recovered store keeps working: the same compaction,
        # retried without the fault, converges to the same results.
        reopened.compact()
        assert store_pairs(reopened, requery) == before
        reopened.close()

    def test_raise_mid_fold_leaves_store_serving(self, tmp_path):
        directory = tmp_path / "store"
        store, live = drive_durable(directory, steps=12)
        rng = random.Random(6)
        store.add_tokens(make_tokens(rng))
        store.remove(live[0])
        query = make_query(store.data, rng)
        before = store_pairs(store, query)
        faults.install_plan(FaultPlan([
            FaultSpec(
                point="ingest.compact",
                kind="raise",
                match={"phase": "segment"},
                max_triggers=1,
            )
        ]))
        with pytest.raises(FaultInjectionError):
            store.compact()
        # Nothing flipped: same results, and the store stays writable.
        assert store_pairs(store, query) == before
        store.add_tokens(make_tokens(rng))
        faults.clear_plan()
        store.compact()  # the retry succeeds
        assert store.num_segments == 1
        assert not store.removed
        store.close()


class TestQueryAfterAddTokenVisibility:
    """Regression: tokens interned by live-mode adds must resolve in
    every later text query, and unknown tokens must keep the
    OOV-sentinel contract (``encode_query`` never raises; only the
    frozen lookups raise the typed
    :class:`~repro.errors.UnknownTokenError`) on every live path —
    in-memory upgrade, durable resume, compact-snapshot upgrade, and
    the service's ``add``.
    """

    NEW_WORDS = [f"freshword{i}" for i in range(DOC_LEN)]

    def _seed_texts(self):
        rng = random.Random(7)
        return [" ".join(make_tokens(rng)) for _ in range(3)]

    def _new_doc_text(self):
        return " ".join(self.NEW_WORDS)

    def _probe_text(self):
        # A w-window-sized slice of the new document: after the add it
        # must self-match; before, every token is OOV.
        return " ".join(self.NEW_WORDS[: PARAMS.w + PARAMS.tau + 1])

    def _assert_resolves(self, index):
        from repro.tokenize.vocabulary import OOV_TOKEN_ID

        query = index.encode_query(self._probe_text())
        assert OOV_TOKEN_ID not in query.tokens
        pairs = index.search_text(self._probe_text()).pairs
        assert pairs, "memtable-interned tokens did not resolve"

    def test_in_memory_upgrade_resolves_new_tokens(self):
        from repro.tokenize.vocabulary import OOV_TOKEN_ID

        index = repro.Index.build(self._seed_texts(), PARAMS)
        before = index.encode_query(self._probe_text())
        assert set(before.tokens) == {OOV_TOKEN_ID}  # sentinel, no raise
        assert not index.search_text(self._probe_text()).pairs
        index.add(self._new_doc_text())
        self._assert_resolves(index)
        index.close()

    def test_durable_resume_resolves_new_tokens(self, tmp_path):
        directory = tmp_path / "live"
        index = repro.Index.open_live(directory, PARAMS)
        for text in self._seed_texts():
            index.add(text)
        index.add(self._new_doc_text())
        self._assert_resolves(index)
        index.close()
        # Resume: WAL replay must re-intern into the reopened vocab.
        reopened = repro.Index.open_live(directory)
        self._assert_resolves(reopened)
        reopened.close()

    def test_compact_snapshot_upgrade_resolves_new_tokens(self, tmp_path):
        path = tmp_path / "snap.pkz"
        built = repro.Index.build(self._seed_texts(), PARAMS)
        built.save(path)
        built.close()
        index = repro.Index.open(path, mmap=True)
        assert index.frozen
        index.add(self._new_doc_text())  # upgrades frozen -> live
        self._assert_resolves(index)
        index.close()

    def test_service_add_text_resolves_new_tokens(self):
        from repro.tokenize.vocabulary import OOV_TOKEN_ID

        index = repro.Index.build(self._seed_texts(), PARAMS)
        service = index.serve()
        service.add(self._new_doc_text())
        reply = service.search_text(self._probe_text())
        assert reply.pairs
        # And the service's encode path kept the sentinel contract for
        # genuinely unknown tokens.
        probe = service.data.encode_query("stillunknown tokens here")
        assert set(probe.tokens) <= {OOV_TOKEN_ID, probe.tokens[0]}
        service.close()

    def test_typed_errors_stay_consistent_in_live_mode(self):
        from repro.errors import UnknownTokenError

        index = repro.Index.build(self._seed_texts(), PARAMS)
        index.add(self._new_doc_text())
        vocab = index.data.vocabulary
        assert vocab.id_of(self.NEW_WORDS[0]) >= 0
        with pytest.raises(UnknownTokenError):
            vocab.id_of("never-seen-token")
        # encode_query never raises: sentinel only.
        assert tuple(index.encode_query("never-seen-token").tokens) == (-1,)
        index.close()


#: What the add door is sent: each must end in a typed error or an add
#: the index then answers exactly, before and after a WAL reopen.
ADD_DOOR_CASES = {
    "empty": "",
    "whitespace-only": " \t\n  ",
    "one-token": "t3",
    "shorter-than-w": "t1 t2 t3 t4 t5",
    "2**16-one-char-tokens": " ".join(
        random.Random(16).choices("abcdefghijklmnopqrstuvwxyz", k=1 << 16)
    ),
    "neither-str-nor-document": 42,
}


class TestAddDoor:
    @pytest.mark.parametrize("door", ["index", "http"])
    @pytest.mark.parametrize("case", list(ADD_DOOR_CASES))
    def test_hostile_add_is_typed_or_exact(self, tmp_path, door, case):
        from repro.errors import ConfigurationError, ReproError
        from repro.service import serve_http
        from repro.service.client import _request, remote_search

        value = ADD_DOOR_CASES[case]
        rng = random.Random(3)
        texts = [" ".join(make_tokens(rng)) for _ in range(3)]
        accepted = isinstance(value, str)
        # Ten words of the new document: a few windows, each matching
        # hundreds of its positions.
        query = " ".join(texts[1].split()[5:25] + (value.split()[:10] if accepted else []))
        directory = tmp_path / "live"
        index = repro.Index.open_live(directory, PARAMS)
        for text in texts:
            index.add(text)
        if door == "index":  # Index.add on a live index
            if accepted:
                assert index.add(value) == len(texts)
            else:
                with pytest.raises(ConfigurationError, match="str or Document"):
                    index.add(value)
            answered = pairs_as_set(index.search_text(query).pairs)
        else:  # POST /ingest, as repro serve --live serves it
            service = index.serve()
            with serving(serve_http(service, port=0)) as server:
                if accepted:
                    reply = _request(f"{server.url}/ingest", {"text": value})
                    assert reply["doc_id"] == len(texts)
                else:
                    with pytest.raises(ReproError, match="string 'text'") as info:
                        _request(f"{server.url}/ingest", {"text": value})
                    assert info.value.status == 400
                answered = pairs_as_set(remote_search(server.url, query)["pairs"])
            service.close()
        texts += [value] if accepted else []
        data = DocumentCollection()
        for text in texts:
            data.add_text(text)
        want = expected_pairs(data, data.encode_query(query), PARAMS.w, PARAMS.tau)
        assert want and answered == want
        index.close()
        reopened = repro.Index.open_live(directory)  # the adds replay as text
        assert reopened.searcher().store.next_doc_id == len(texts)
        assert pairs_as_set(reopened.search_text(query).pairs) == want
        reopened.close()

    @pytest.mark.parametrize("given", ["text", "appended-document"])
    def test_a_refused_add_leaves_no_trace(self, tmp_path, given):
        # A document appended through index.data behind the store's back
        # puts the collection one doc id ahead of the memtable: the next
        # add is refused before it logs, appends, indexes or bumps.
        rng = random.Random(4)
        directory = tmp_path / "live"
        index = repro.Index.open_live(directory, PARAMS)
        for _ in range(3):
            index.add(" ".join(make_tokens(rng)))
        store, data = index.searcher().store, index.data
        document = data.add_text(" ".join(make_tokens(rng)))
        if given == "appended-document":
            document = data.add_text(" ".join(make_tokens(rng)))

        def state():
            counters = store.metrics_snapshot()["counters"]
            return (len(data), store.next_doc_id, store.mutation_epoch,
                    counters.get("ingest.wal_records", 0),
                    len(wal_records(directory)))

        before = state()
        with pytest.raises(IndexStateError, match="mutated outside the store"):
            index.add(" ".join(make_tokens(rng)) if given == "text" else document)
        assert state() == before
        index.close()
        reopened = repro.Index.open_live(directory)
        assert reopened.searcher().store.next_doc_id == len(reopened.data) == 3
        reopened.close()

    def test_document_over_the_token_limit_answers_413(self, tmp_path, monkeypatch):
        # Refused before the WAL or the vocabulary sees it, like a query
        # over the same limit.
        import repro.service.http as door
        from repro.errors import ReproError
        from repro.service import serve_http
        from repro.service.client import _request

        monkeypatch.setattr(door, "MAX_QUERY_TOKENS", 5)
        directory = tmp_path / "live"
        index = repro.Index.open_live(directory, PARAMS)
        index.add("t1 t2 t3")
        store = index.searcher().store
        service = index.serve()
        with serving(serve_http(service, port=0)) as server:
            before = (store.next_doc_id, len(wal_records(directory)),
                      len(store.data.vocabulary))
            with pytest.raises(ReproError, match="6 tokens is over 5") as info:
                _request(f"{server.url}/ingest", {"text": "t1 u2 u3 u4 u5 u6"})
            assert info.value.status == 413
            assert (store.next_doc_id, len(wal_records(directory)),
                    len(store.data.vocabulary)) == before
            reply = _request(f"{server.url}/ingest", {"text": "u1 u2 u3 u4 u5"})
            assert reply["doc_id"] == before[0]
        service.close()
        index.close()
