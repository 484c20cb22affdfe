"""The multi-core execution engine beyond its pairs.

A pooled query workload's pairs and merged counters are
``test_exactness.py``'s fork and spawn cells.  This suite pins the rest:
the serial order of a run's lists, the blocked self-join against its
serial counterpart (under spawn, with a worker killed: ``test_faults.py``),
the degenerate cases —
``jobs=1`` pass-through, an empty workload, a workload smaller than the
worker count — and the executor's one knob.
"""

from __future__ import annotations

import inspect
import multiprocessing
import random

import pytest

from repro import SearchParams, local_similarity_self_join
from repro.core.pkwise import PKWiseSearcher
from repro.corpus import DocumentCollection
from repro.errors import ConfigurationError
from repro.eval import run_searcher
from repro.eval.harness import canonical_pair_order, serial_run
from repro.parallel import ParallelExecutor, executor as executor_module

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

pytestmark = pytest.mark.skipif(
    not HAVE_FORK, reason="parity suite drives the fork fast path"
)


@pytest.fixture(scope="module")
def corpus():
    """A corpus with genuine cross-document reuse plus query documents."""
    rng = random.Random(4242)
    vocab = [f"w{i}" for i in range(80)]
    data = DocumentCollection()
    docs = []
    for _ in range(9):
        docs.append([vocab[rng.randrange(len(vocab))] for _ in range(110)])
    segment = docs[0][15:45]
    segment[7] = "w7777"
    docs[4][30:60] = segment
    docs[7][0:30] = docs[0][15:45]
    for tokens in docs:
        data.add_tokens(tokens)
    queries = [
        data[0],
        data[4],
        data.encode_query_tokens(
            docs[2][20:70] + ["novel1", "novel2"] + docs[5][10:40]
        ),
        data.encode_query_tokens(["unseen"] * 30),
    ]
    return data, queries


@pytest.fixture(scope="module")
def params():
    return SearchParams(w=12, tau=3, k_max=2)


class TestSerialOrderingContract:
    def test_serial_results_canonically_sorted(self, corpus, params):
        data, queries = corpus
        searcher = PKWiseSearcher(data, params)
        run = serial_run(searcher, queries)
        for pairs in run.results_by_query.values():
            assert pairs == canonical_pair_order(pairs)
            assert pairs == sorted(
                pairs, key=lambda p: (p.doc_id, p.data_start, p.query_start)
            )


class TestSelfJoinParity:
    def test_matches_serial(self, corpus, params):
        data, _queries = corpus
        serial = local_similarity_self_join(
            data, params, exclude_same_document_within=params.w
        )
        parallel = local_similarity_self_join(
            data, params, exclude_same_document_within=params.w, jobs=3
        )
        assert parallel == serial
        assert serial  # the corpus really contains replicated windows

    def test_no_exclusion_window(self, corpus, params):
        data, _queries = corpus
        serial = local_similarity_self_join(data, params)
        parallel = local_similarity_self_join(data, params, jobs=2)
        assert parallel == serial


class TestDegenerateWorkloads:
    """Empty/degenerate inputs return empty results with sane stats."""

    @pytest.mark.parametrize("jobs", [2, 4, 8])
    def test_zero_queries(self, corpus, params, jobs):
        data, _queries = corpus
        searcher = PKWiseSearcher(data, params)
        executor = ParallelExecutor(jobs=jobs)
        run = executor.run_workload(searcher, [])
        assert run.num_queries == 0
        assert run.results_by_query == {}
        assert run.num_results == 0
        assert run.worker_skew == 1.0
        assert run.avg_query_seconds == 0.0
        # The record is well-formed (no division-by-zero artifacts).
        assert run.metrics_snapshot()["phases"] == {
            "routing": 0.0, "signature": 0.0, "candidate": 0.0, "verify": 0.0,
        }
        batch = run_searcher(searcher, [], jobs=jobs)
        assert batch.num_queries == 0 and batch.results_by_query == {}
        assert batch.avg_query_seconds == 0.0

    @pytest.mark.parametrize("jobs,num_queries", [(8, 2), (16, 3), (64, 2)])
    def test_jobs_larger_than_chunks(self, corpus, params, jobs, num_queries):
        data, queries = corpus
        searcher = PKWiseSearcher(data, params)
        serial = run_searcher(searcher, queries[:num_queries])
        parallel = run_searcher(searcher, queries[:num_queries], jobs=jobs)
        assert parallel.results_by_query == serial.results_by_query
        assert parallel.jobs <= num_queries  # never more workers than chunks
        assert parallel.worker_skew >= 1.0
        assert sum(r.num_queries for r in parallel.worker_reports) == num_queries
        assert (sum(r.stats.num_results for r in parallel.worker_reports)
                == parallel.stats.num_results)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_chunk_size_larger_than_workload(
        self, corpus, params, jobs, monkeypatch
    ):
        data, queries = corpus
        searcher = PKWiseSearcher(data, params)
        # A fraction of a chunk per worker: one chunk, far larger than
        # the workload, holds all of it.
        monkeypatch.setattr(executor_module, "CHUNKS_PER_WORKER", 0.001)
        run = ParallelExecutor(jobs=jobs).run_workload(searcher, queries)
        serial = serial_run(searcher, queries)
        assert run.results_by_query == serial.results_by_query

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_documents_shorter_than_window(self, params, jobs):
        # Every document (and query) is shorter than w: zero windows
        # anywhere, so every operation returns empty with clean stats.
        data = DocumentCollection()
        for text in ("a b c", "d e f", "a b d", "c a"):
            data.add_tokens(text.split())
        executor = ParallelExecutor(jobs=jobs)
        searcher = PKWiseSearcher(data, params)
        assert searcher.index.num_windows == 0
        queries = [data[0], data.encode_query_tokens(["a", "b"])]
        run = executor.run_workload(searcher, queries)
        assert run.num_results == 0
        assert all(pairs == [] for pairs in run.results_by_query.values())
        assert run.worker_skew >= 1.0
        join = executor.self_join(
            data, params, exclude_same_document_within=params.w
        )
        assert join == []

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_short_query_against_real_corpus(self, corpus, params, jobs):
        data, _queries = corpus
        searcher = PKWiseSearcher(data, params)
        short_query = data.encode_query_tokens(["w1", "w2"])  # len < w
        run = run_searcher(searcher, [data[0], short_query], jobs=jobs)
        assert run.results_by_query[1] == []  # the short query: no windows
        assert run.num_queries == 2
        serial = run_searcher(searcher, [data[0], short_query], jobs=1)
        assert run.results_by_query == serial.results_by_query
        # jobs=1 passes through: no pool, no worker report.
        assert serial.jobs == 1 and serial.worker_reports == []
        assert serial.worker_skew == 1.0

    def test_empty_collection_self_join(self, params):
        assert local_similarity_self_join(
            DocumentCollection(), params, jobs=2
        ) == []


class TestExecutorConfig:
    def test_constructor_takes_jobs_only(self):
        # What a caller (the CLI, run_searcher) sets; start method, chunk
        # size, backoff and restart budget are constants of
        # repro.parallel.executor, which tests monkeypatch.
        assert list(inspect.signature(ParallelExecutor).parameters) == ["jobs"]

    def test_batch_entry_points_take_no_pool_options(self):
        def settable(function, inputs):
            return list(inspect.signature(function).parameters)[inputs:]

        assert settable(run_searcher, 2) == ["name", "jobs", "checkpoint", "resume"]
        assert settable(local_similarity_self_join, 2) == [
            "exclude_same_document_within", "jobs", "checkpoint", "resume",
        ]
        assert settable(ParallelExecutor.run_workload, 3) == [
            "name", "checkpoint", "resume",
        ]
        assert settable(ParallelExecutor.self_join, 3) == [
            "exclude_same_document_within", "checkpoint", "resume",
        ]
        assert executor_module.START_METHOD in multiprocessing.get_all_start_methods()

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(jobs=-1)
        with pytest.raises(ConfigurationError):
            ParallelExecutor(jobs=-2)

    def test_jobs_none_means_cpu_count(self):
        import os

        assert ParallelExecutor(jobs=None).jobs == (os.cpu_count() or 1)
        assert ParallelExecutor(jobs=0).jobs == (os.cpu_count() or 1)
