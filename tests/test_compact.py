"""Tests for the compact array-backed index and its snapshot files.

Covers the built engine's columns — the hash-collision path (collisions
can only *add* candidates), the columns a build or freeze writes once, the
frozen mutation guards, a mapped snapshot's tombstones and truncation
(the envelope's other rules are ``test_persistence.py``'s), the
:class:`~repro.index.compact.PackedRankDocs` sequence and slice semantics,
and concurrent search threads on one mapped snapshot.  Its pairs, serial,
pooled and served, are ``test_exactness.py``'s compact and mmap cells.
"""

from __future__ import annotations

import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Index, PersistenceError, SearchParams
from repro.core.pkwise import PKWiseSearcher
from repro.corpus import DocumentCollection
from repro.errors import IndexStateError
from repro.index.compact import (
    CompactIntervalIndex,
    PackedRankDocs,
    ProbeHit,
    _packed_column,
)
from repro.index.interval_index import IntervalIndex
from repro.ingest import IngestStore
from repro.ingest.memtable import RankColumn
from repro.ingest.tiered import Tier, TieredRankDocs
from repro.partition.scheme import PartitionScheme
from repro.persistence import load_bundle, read_envelope, save_searcher, write_envelope
from repro.service import SearchService
from repro.signatures.generate import generate_signatures

from .conftest import (
    expected_pairs,
    make_corpus,
    make_queries,
    pairs_as_set,
    probe_runs,
    reference_index,
    slice_accessor,
)


#: Ranks the real collision is drawn from: shard 1's (see
#: ``collision_corpus``), below the planted windows' filler tokens.
_SHARD_LO, _FILLER = 800, 1584


def real_collision(seed: int = 1) -> tuple[tuple[int, int], tuple[int, int]]:
    """Two 2-rank signatures over four distinct ranks of
    ``[_SHARD_LO, _FILLER)`` whose 4-byte keys are equal: a seeded
    birthday search, 2**16 draws a round (about 1.5 rounds at 780 ranks)."""
    from repro.signatures.generate import signature_hashes

    rng = np.random.default_rng(seed)
    seen: dict[int, tuple[int, int]] = {}
    while True:
        pairs = np.sort(rng.integers(_SHARD_LO, _FILLER, size=(1 << 16, 2)), axis=1)
        pairs = pairs[pairs[:, 0] < pairs[:, 1]]
        keys = signature_hashes(pairs, np.full(len(pairs), 2))
        for key, pair in zip(keys.tolist(), map(tuple, pairs.tolist())):
            other = seen.setdefault(key, pair)
            if len({*other, *pair}) == 4:
                return other, pair


def collision_corpus(first, second) -> list[list[str]]:
    """200 documents of ``w`` = 8 tokens, the last two holding ``first``
    and ``second``.

    ``c0000`` .. ``c1599`` each sit in one window, so every token has the
    same window frequency, its rank is its number and, with ``k_max`` = 2,
    all of them are class 2 of one group.  Shard 1 of 2 (documents
    100-199) holds c0800 .. c1599, and in its own order the 800 tokens it
    lacks rank first (class 1), so its tokens keep those ranks too.  Each
    pair's two ranks are the smallest of their window, so with ``tau`` = 1
    (a prefix of 3) each pair is one of its window's signatures."""
    name = "c{:04d}".format
    planted = {*first, *second, *range(_FILLER, _FILLER + 12)}
    pool = [rank for rank in range(1600) if rank not in planted]
    documents = [[name(rank) for rank in pool[i : i + 8]] for i in range(0, len(pool), 8)]
    for pair, filler in ((first, _FILLER), (second, _FILLER + 6)):
        documents.append([name(rank) for rank in (*pair, *range(filler, filler + 6))])
    return documents


class TestHashedCollisions:
    """Colliding keys merge postings runs: extra candidates, same pairs."""

    def _collide_all_hashes(self, monkeypatch, value=7):
        from repro.index import compact as compact_module

        monkeypatch.setattr(
            compact_module,
            "signature_hashes",
            lambda sigs, lengths=None: np.full(len(sigs), value, dtype=np.uint32),
        )

    def test_compact_collision_pairs_survive(self, built, queries, monkeypatch):
        # Doc 0's first 40 tokens, which the planted doc 3 repeats: every
        # probe of the collided index returns every posting, so the
        # candidate counts must net out across all signatures at once.
        data, baseline = built
        honest = baseline.search(queries[0])
        self._collide_all_hashes(monkeypatch)
        frozen = PKWiseSearcher(data, baseline.params)
        assert frozen.index.num_signatures == 1
        assert frozen.index.num_postings == baseline.index.num_postings
        result = frozen.search(queries[0])
        assert honest.pairs and pairs_as_set(result) == pairs_as_set(honest)
        # Merged postings can only add candidates; verification removes
        # the extras so the final pairs above are unchanged.
        assert result.stats.candidate_windows >= honest.stats.candidate_windows

    def test_two_keys_share_a_bucket(self, monkeypatch):
        # Minimal shape of the collision property: two distinct tuple
        # keys, one bucket, both postings runs preserved — two signatures
        # whose 4-byte keys really are equal, then any two forced to.
        from repro.partition.equi_width import equi_width_scheme

        scheme = equi_width_scheme(8, 2)
        for forced, (first, second) in ((False, real_collision()), (True, ((1, 2), (3, 4)))):
            if forced:
                self._collide_all_hashes(monkeypatch, value=42)
            index = IntervalIndex(4, 1, scheme)
            index._postings[first] = [ProbeHit(0, 0, 3)]
            index._postings[second] = [ProbeHit(1, 5, 9)]
            frozen = CompactIntervalIndex.from_index(index)
            assert frozen.num_signatures == 1
            assert frozen.to_arrays()[1]["keys"].dtype == np.uint32
            for key in (first, second):
                (run,) = probe_runs(frozen.probe_many([key]))
                assert sorted(run) == [(0, 0, 3), (1, 5, 9)]

    def test_a_real_collision_is_exact_on_every_path(self, tmp_path):
        # Two planted windows whose signatures share a 4-byte key, built,
        # saved and mapped, live (a memtable catch-up, then a fold) and
        # sharded: every key column is uint32, each probe of the two
        # signatures returns the merged run, and every query's pairs are
        # the reference's.
        from repro.service import ShardPlan, ShardRouter
        from repro.service.router import LocalShardBackend

        first, second = real_collision()
        texts = collision_corpus(first, second)
        data = DocumentCollection()
        for tokens in texts:
            data.add_tokens(tokens)
        params = SearchParams(w=8, tau=1, k_max=2)
        x, y = len(texts) - 2, len(texts) - 1
        signatures = [first, second]

        def merged_run(index, docs):
            keys = index.to_arrays()[1]["keys"]
            assert keys.dtype == np.uint32 and len(np.unique(keys)) == len(keys)
            runs = probe_runs(index.probe_many(signatures))
            assert runs[0] == runs[1] and {hit[0] for hit in runs[0]} == docs

        def check_pairs(engine, truth):
            for doc_id in (x, y):
                query = truth.encode_query_tokens(texts[doc_id])
                want = sorted(expected_pairs(truth, query, params.w, params.tau))
                assert len(want) >= 1
                assert sorted(map(tuple, engine.search(query).pairs)) == want

        built = Index.build(data, params)
        assert built.searcher().order.rank_sequence([data.vocabulary.id_of("c0001")]) == [1]
        merged_run(built.searcher().index, {x, y})
        check_pairs(built, data)
        built.save(tmp_path / "x.idx")
        with Index.open(tmp_path / "x.idx", mmap=True) as opened:
            merged_run(opened.searcher().index, {x, y})
            check_pairs(opened, data)

        plan = ShardPlan.build(data, params, tmp_path / "shards", num_shards=2)
        assert [(s.doc_lo, s.doc_hi) for s in plan.shards] == [(0, 100), (100, 200)]
        backends = []
        for spec in plan.shards:
            shard = Index.open(tmp_path / "shards" / spec.path, mmap=True)
            assert shard.searcher().index.to_arrays()[1]["keys"].dtype == np.uint32
            backends.append(LocalShardBackend(
                shard.serve(), shard_id=spec.shard_id, doc_lo=spec.doc_lo,
                doc_hi=spec.doc_hi,
            ))
        merged_run(shard.searcher().index, {x - 100, y - 100})
        with ShardRouter(backends, data) as router:
            check_pairs(router, data)

        truth = DocumentCollection()
        for tokens in texts + texts[-2:]:
            truth.add_tokens(tokens)
        for tokens in texts[-2:]:
            built.add(" ".join(tokens))
        check_pairs(built, truth)  # the memtable catches up on the query
        store = built.searcher().store
        merged_run(store._active.columns, {0, 1})
        built.flush()  # the fold
        merged_run(store._segments[-1].index, {0, 1})
        check_pairs(built, truth)
        built.close()


class TestWrittenOnce:
    """A frozen index is one set of columns, however it was assembled,
    and reading it leaves every one of them as it was."""

    def test_freeze_and_fold_assemble_the_same_columns(self, built):
        # The build's one array pass, the freeze of the dict reference, a
        # fold of two halves built apart (a memtable's catch-up) and a
        # fold of the freeze: one set of columns, the stats of one build.
        _data, searcher = built
        frozen = CompactIntervalIndex.from_index(reference_index(searcher))
        params, ranks = searcher.params, list(searcher.rank_docs)
        head, tail = (
            CompactIntervalIndex.from_rank_docs(
                PackedRankDocs.from_lists(part), params.w, params.tau, searcher.scheme
            )
            for part in (ranks[:2], ranks[2:])
        )
        folded = CompactIntervalIndex.merged([(head, 0), (tail, 2)])
        refolded = CompactIntervalIndex.merged([(frozen, 0)])
        meta, columns = frozen.to_arrays()
        assert tuple(columns) == CompactIntervalIndex.COLUMNS
        for other in (searcher.index, folded, refolded):
            for name, column in other.to_arrays()[1].items():
                assert column.dtype == columns[name].dtype, name
                assert column.tobytes() == columns[name].tobytes(), name
        assert searcher.index.to_arrays()[0] == meta

    def test_probing_writes_nothing(self, built):
        _data, searcher = built
        index = searcher.index
        held = list(reference_index(searcher)._postings)
        missing = [(10**9 + i, 10**9 + i + 1) for i in range(50)]
        rng = random.Random(9)
        batches = [[()], [held[0]], [missing[0]], held[:200], missing]
        for _ in range(15):
            batch = rng.sample(held, 100) + rng.sample(missing, 20) + [()]
            rng.shuffle(batch)
            batches.append(batch)
        before = dict(vars(index))
        sizes = {name: len(value) for name, value in before.items()
                 if hasattr(value, "__len__")}
        copies = {name: value.copy() for name, value in before.items()
                  if isinstance(value, np.ndarray)}
        assert len(copies) == 5  # the five columns, read in place
        expected = [probe_runs(index.probe_many(batch)) for batch in batches]
        assert held[0] in index and missing[0] not in index and () not in index
        errors: list[BaseException] = []

        def probe() -> None:
            try:
                for _ in range(2):
                    for batch, runs in zip(batches, expected):
                        assert probe_runs(index.probe_many(batch)) == runs
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=probe) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        after = vars(index)
        assert after.keys() == before.keys()
        for name, value in before.items():
            assert after[name] is value, name
        assert {name: len(after[name]) for name in sizes} == sizes
        for name, copy in copies.items():
            assert after[name].dtype == copy.dtype, name
            assert after[name].tobytes() == copy.tobytes(), name


class TestBuildMemory:
    def test_working_set_is_one_block_whatever_the_document_lengths(self):
        # 200,000 tokens as one document and as 2,000 short ones.  The
        # rows a posting holds until the one sort by key (its 4-byte hash,
        # three columns of int16 or int32 each, the permutation, the
        # sorted key and columns) are at most 40 bytes, 28 when every
        # column fits int16; beyond them the build holds one block of at most
        # _BLOCK_CELLS window cells, never a matrix of all the windows of
        # a document (4 x 10**7 bytes here for the long one).
        rng = np.random.default_rng(0)
        values = rng.integers(0, 5000, 2 * 10**5).astype(np.int32)
        scheme = PartitionScheme(universe_size=5000, borders=(4000,))
        for lengths in ([2 * 10**5], [100] * 2000):
            offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            packed = PackedRankDocs(offsets, values)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                index = CompactIntervalIndex.from_rank_docs(packed, 50, 5, scheme)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert index.num_postings > 2 * 10**4
            assert peak - 40 * index.num_postings < 6 * 2**20, (lengths[0], peak)


class TestFrozenGuards:
    def test_index_mutation_raises(self, built):
        _data, searcher = built
        assert searcher.frozen
        assert isinstance(searcher.index, CompactIntervalIndex)
        assert isinstance(searcher.rank_docs, PackedRankDocs)
        with pytest.raises(IndexStateError, match="frozen"):
            searcher.index.index_document(99, [1, 2, 3])

    def test_remove_document_still_works(self, built, queries):
        _data, searcher = built
        before = searcher.search(queries[1])
        assert any(pair.doc_id == 0 for pair in before.pairs)
        searcher._remove_document(0)
        after = searcher.search(queries[1])
        assert not any(pair.doc_id == 0 for pair in after.pairs)

    def test_service_add_upgrades_frozen_to_live(self, built, small_corpus):
        # Mutating a service over a frozen compact searcher used to be
        # a hard error; it now upgrades to the LSM write path — the
        # compact index becomes the frozen base segment and the add
        # lands in a memtable, immediately searchable.
        data, searcher = built
        with SearchService(Index(searcher, data), max_workers=1) as service:
            new_id = service.add(small_corpus[0])
            assert new_id == len(small_corpus) - 1
            result = service.search(small_corpus[0])
            assert any(pair.doc_id == new_id for pair in result.pairs)

    def test_column_shape_validation(self):
        with pytest.raises(IndexStateError, match="offsets"):
            CompactIntervalIndex(
                4,
                1,
                None,
                keys=np.zeros(2, dtype=np.uint64),
                offsets=np.zeros(2, dtype=np.int64),
                docs=np.zeros(0, dtype=np.int32),
                us=np.zeros(0, dtype=np.int32),
                vs=np.zeros(0, dtype=np.int32),
            )


class TestV3Snapshots:
    def test_tombstones_survive_roundtrip(self, built, queries, tmp_path):
        _data, searcher = built
        searcher._remove_document(0)
        epoch_before = searcher.index_epoch
        path = tmp_path / "index.idx"
        save_searcher(searcher, path)
        loaded = load_bundle(path, mmap=True).searcher
        assert loaded.removed_documents == frozenset({0})
        assert loaded.index_epoch == epoch_before
        assert not any(
            pair.doc_id == 0 for pair in loaded.search(queries[1]).pairs
        )

    def test_truncated_file_is_typed_error(self, built, tmp_path):
        _data, searcher = built
        path = tmp_path / "index.idx"
        save_searcher(searcher, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(PersistenceError):
            load_bundle(path, fallback=False)
        for mode in (False, True):
            path.write_bytes(raw[:20])  # not even a whole TOC length
            with pytest.raises(PersistenceError):
                load_bundle(path, fallback=False, mmap=mode)


RANK_LISTS = st.lists(
    st.lists(st.integers(0, 40), max_size=9), min_size=3, max_size=7
)


def assert_slices_like_lists(container, lists):
    """``rank_slice(doc, lo, hi) == lists[doc][lo:hi]`` for every
    ``lo <= hi`` up to past the document's end, in plain ``int``s."""
    rank_slice = slice_accessor(container)
    for doc_id, ranks in enumerate(lists):
        for lo in range(len(ranks) + 2):
            for hi in range(lo, len(ranks) + 3):
                got = rank_slice(doc_id, lo, hi)
                assert got == ranks[lo:hi], (doc_id, lo, hi)
                assert all(type(rank) is int for rank in got)


class TestPackedRankDocs:
    def test_roundtrip_matches_lists(self, built):
        _data, searcher = built
        packed = PackedRankDocs.from_lists(searcher.rank_docs)
        assert len(packed) == len(searcher.rank_docs)
        for doc_id, ranks in enumerate(searcher.rank_docs):
            assert packed[doc_id] == list(ranks)

    def test_slice_and_negative_index(self):
        packed = PackedRankDocs.from_lists([[1, 2], [3], [4, 5, 6]])
        assert packed[-1] == [4, 5, 6]
        assert packed[1:] == [[3], [4, 5, 6]]
        with pytest.raises(IndexError):
            packed[3]

    @settings(max_examples=60, deadline=None)
    @given(
        lists=RANK_LISTS,
        wide=st.sampled_from([(None, np.int16), (2**15, np.int32), (2**31, np.int64)]),
        dropped=st.integers(0, 6),
    )
    def test_rank_slice_is_list_slicing(self, lists, wide, dropped):
        # Ranks that fit int16, one rank past int16 and one past int32:
        # the column takes the narrowest width that holds them.
        past, dtype = wide
        if past is not None:
            lists = [lists[0] + [past], *lists[1:]]
        packed = PackedRankDocs.from_lists(lists)
        assert packed._values.dtype == dtype
        assert_slices_like_lists(packed, lists)
        assert [packed.doc_length(i) for i in range(len(lists))] == [
            len(ranks) for ranks in lists
        ]
        # A compacted-away document keeps its slot with an empty run.
        dropped %= len(lists)
        folded = PackedRankDocs.concatenated([packed], removed=[dropped])
        kept = [[] if i == dropped else ranks for i, ranks in enumerate(lists)]
        assert_slices_like_lists(folded, kept)
        assert folded.doc_length(dropped) == 0
        # The same answers through the live index's view: a segment, a
        # sealed memtable and the active one (whose column grows in place).
        first, second = len(lists) // 3, 2 * len(lists) // 3
        sealed, active = RankColumn(), RankColumn()
        sealed.extend(PackedRankDocs.from_lists(lists[first:second]))
        for ranks in lists[second:]:
            active.append(np.array(ranks, dtype=np.int64))
        tiered = TieredRankDocs([
            Tier(0, first, 1, None, PackedRankDocs.from_lists(lists[:first]),
                 "segment"),
            Tier(first, second, 2, None, sealed, "memtable"),
            Tier(second, None, 3, None, active, "memtable"),
        ])
        active.append(np.array([7, 7, 8], dtype=np.int16))
        assert_slices_like_lists(tiered, lists + [[7, 7, 8]])
        assert tiered.doc_length(len(lists)) == 3

    def test_rank_slice_reads_a_mapped_file(self, built, tmp_path):
        _data, searcher = built
        path = tmp_path / "index.idx"
        save_searcher(searcher, path)
        mapped = load_bundle(path, mmap=True).searcher.rank_docs
        assert not mapped._values.flags["OWNDATA"]
        assert_slices_like_lists(mapped, searcher.rank_docs)

    def test_arrays_roundtrip(self):
        packed = PackedRankDocs.from_lists([[9, 8], [], [7]])
        clone = PackedRankDocs.from_arrays(packed.to_arrays())
        assert [clone[i] for i in range(3)] == [[9, 8], [], [7]]

    def test_empty_offsets_rejected(self):
        with pytest.raises(IndexStateError):
            PackedRankDocs(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))

    def test_wide_values_fall_back_to_int64(self):
        packed = PackedRankDocs.from_lists([[2**40]])
        assert packed[0] == [2**40]


class TestSearchThreadsShareNothing:
    """Concurrent searches of one mapped snapshot: the rank column is
    read by slice and nothing is written, so no interleaving of search
    threads can change — or fail — an answer."""

    THREADS, PER_THREAD = 4, 12

    @pytest.fixture(scope="class")
    def opened(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("threads")
        rng = random.Random(77)
        shared = [f"s{rng.randrange(40)}" for _ in range(400)]
        texts = []
        for _ in range(self.THREADS * self.PER_THREAD):
            at = rng.randrange(len(shared) - 40)
            filler = [f"f{rng.randrange(200)}" for _ in range(10)]
            texts.append(" ".join(filler + shared[at : at + 40] + filler))
        path = tmp_path / "corpus.idx"
        Index.build(texts, w=10, tau=2, k_max=3).save(path)
        with Index.open(path, mmap=True) as index:
            queries = [index.encode_query(text) for text in texts]
            serial = [pairs_as_set(index.search(query)) for query in queries]
            # Candidates span far more documents than any one query's own.
            assert min(len({p[0] for p in pairs}) for pairs in serial) > 1
            yield index, queries, serial

    @pytest.fixture
    def tight_switching(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    def test_threads_return_the_serial_pairs(self, opened, tight_switching):
        index, queries, serial = opened
        got: dict[int, set] = {}
        errors: list[BaseException] = []

        def search(mine: range) -> None:
            try:
                for qid in mine:
                    got[qid] = pairs_as_set(index.search(queries[qid]))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(
                target=search,
                args=(range(t * self.PER_THREAD, (t + 1) * self.PER_THREAD),),
            )
            for t in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [got[qid] for qid in range(len(queries))] == serial

    def test_service_workers_answer_every_request_whole(
        self, opened, tight_switching
    ):
        index, queries, serial = opened
        rng = random.Random(78)
        # Mixed: a hot few (cache hits between evictions) and the rest.
        asked = [
            rng.randrange(4) if rng.random() < 0.3 else rng.randrange(len(queries))
            for _ in range(96)
        ]
        with index.serve(max_workers=4, max_queue=len(asked), cache_size=8) as service:
            futures = [service.submit(queries[qid]) for qid in asked]
            replies = [future.result(timeout=120) for future in futures]
            counters = service.metrics_snapshot()["metrics"]["counters"]
        assert counters.get("service.errors", 0) == 0
        assert counters["service.completed"] == len(asked)
        assert [set(map(tuple, reply.pairs)) for reply in replies] == [
            serial[qid] for qid in asked
        ]


class TestTypedResults:
    def test_probe_hits_have_named_fields(self, built):
        _data, searcher = built
        dict_index = reference_index(searcher)
        key = next(iter(dict_index._postings))
        hit = dict_index.probe(key)[0]
        assert isinstance(hit, ProbeHit)
        assert hit.doc_id == hit[0] and hit.u == hit[1] and hit.v == hit[2]
        doc_id, u, v = hit  # tuple unpack keeps working
        assert (doc_id, u, v) == tuple(hit)

    def test_match_pairs_have_named_fields(self, built, queries):
        from repro import MatchPair

        _data, searcher = built
        pair = searcher.search(queries[1]).pairs[0]
        assert isinstance(pair, MatchPair)
        assert pair.doc_id == pair[0]
        assert pair.overlap == pair[3]


def stored_at_old_widths(path):
    """Rewrite the snapshot or segment file at ``path`` with the widths
    3.0.1 stored: int64 offsets and cover counts, int32 ranks and
    postings.  Same TOC version, sections and values."""
    header, sections, arrays = read_envelope(path, "pkwise-index")
    write_envelope(path, "pkwise-index", sections, {
        name: array.astype(
            np.int64 if name.endswith(("offsets", "cover_counts")) else np.int32
        ) if array.dtype.kind == "i" else array
        for name, array in arrays.items()
    }, header)


def integer_columns(path):
    """Every integer array section of the envelope at ``path``."""
    arrays = read_envelope(path, "pkwise-index")[2]
    return {name: array for name, array in arrays.items() if array.dtype.kind == "i"}


class TestColumnWidths:
    """Every stored integer column takes the narrowest of int16, int32
    and int64 that holds it; a probe widens once, to int32 at least, so
    no sum after it wraps, and a file at the old widths still answers."""

    def test_window_past_int16_in_one_document(self):
        # One document of 32,800 tokens; the query repeats its last 60,
        # so the matching windows start past 32,767 - w and end past
        # int16.  The stored window starts still fit int16.
        rng = random.Random(5)
        tokens = [f"t{rng.randrange(3000)}" for _ in range(32_800)]
        data = DocumentCollection()
        data.add_tokens(tokens)
        data.add_tokens(tokens[:200])
        w, tau = 50, 5
        index = Index.build(data, w=w, tau=tau, k_max=4)
        query = data.encode_query_tokens(tokens[-60:])
        got = pairs_as_set(index.search(query))
        assert got == expected_pairs(data, query, w, tau)
        assert max(pair[1] for pair in got) > 32_767 - w
        searcher = index.searcher()
        assert searcher.index.to_arrays()[1]["us"].dtype == np.int16
        # The last window's signatures: a caller adding w to a probed
        # window start reads the true window end, past int16.
        ranks = sorted(searcher.rank_docs.rank_slice(0, 32_800 - w, 32_800))
        batch = searcher.index.probe_many(generate_signatures(ranks, tau, searcher.scheme))
        assert int((batch.vs + w).max()) == 32_800

    def test_old_width_snapshot_answers_identically(self, tmp_path):
        data, _rng = make_corpus(4, docs=8)
        index = Index.build(data, w=8, tau=2, k_max=2, routing="exact")
        narrow, old = tmp_path / "narrow.idx", tmp_path / "old.idx"
        index.save(narrow)
        index.save(old)
        stored_at_old_widths(old)
        assert {a.dtype for a in integer_columns(narrow).values()} == {np.dtype(np.int16)}
        assert {a.dtype for a in integer_columns(old).values()} == {
            np.dtype(np.int32), np.dtype(np.int64)
        }
        queries = make_queries(data, random.Random(4))
        with Index.open(narrow, mmap=True) as a, Index.open(old, mmap=True) as b:
            assert b.searcher().rank_docs._values.dtype == np.int32
            for query in queries:
                for routing in ("off", "exact"):
                    assert pairs_as_set(a.search(query, routing=routing)) == pairs_as_set(
                        b.search(query, routing=routing)
                    )

    def test_old_width_segment_folds_narrow(self, tmp_path):
        # A sealed segment at 3.0.1's widths, then an int16 memtable:
        # the flush and the fold store every column at its narrowest
        # width, and the pairs are the oracle's throughout.
        data, rng = make_corpus(6, docs=10)
        params = SearchParams(w=8, tau=2, k_max=2, routing="exact")
        texts = [data.vocabulary.decode(document.tokens) for document in data]
        store = IngestStore.create(params, directory=tmp_path)
        for tokens in texts[:5]:
            store.add_tokens(tokens)
        store.flush()
        store.close()
        (segment,) = tmp_path.glob("segment.g*.idx")
        stored_at_old_widths(segment)
        assert integer_columns(segment)["index.docs"].dtype == np.int32
        store = IngestStore.open(tmp_path)
        for tokens in texts[5:]:
            store.add_tokens(tokens)
        store.remove(1)
        queries = make_queries(store.data, rng)

        def assert_oracle_pairs():
            for query in queries:
                assert pairs_as_set(store.searcher().search(query)) == expected_pairs(
                    store.data, query, params.w, params.tau, removed={1}
                )

        assert_oracle_pairs()
        store.flush()
        assert_oracle_pairs()
        store.compact()
        assert_oracle_pairs()
        store.close()
        (folded,) = tmp_path.glob("segment.g*.idx")
        for name, column in integer_columns(folded).items():
            assert column.dtype == _packed_column(column.astype(np.int64)).dtype, name
        assert integer_columns(folded)["ranks.values"].dtype == np.int16
