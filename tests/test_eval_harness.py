"""Tests for the workload runner."""

from __future__ import annotations

from repro import SearchParams
from repro.core.pkwise import PKWiseSearcher
from repro.eval import run_searcher


class TestRunSearcher:
    def test_aggregates(self, small_corpus):
        params = SearchParams(w=10, tau=2, k_max=2)
        searcher = PKWiseSearcher(small_corpus, params)
        queries = [small_corpus[0], small_corpus[3]]
        run = run_searcher(searcher, queries)
        assert run.num_queries == 2
        assert run.total_seconds > 0
        assert run.avg_query_seconds == run.total_seconds / 2
        assert run.name == "pkwise"
        assert set(run.results_by_query) == {0, 3}
        assert run.num_results == sum(
            len(pairs) for pairs in run.results_by_query.values()
        )

    def test_custom_name(self, small_corpus):
        params = SearchParams(w=10, tau=1, k_max=1)
        searcher = PKWiseSearcher(small_corpus, params)
        run = run_searcher(searcher, [small_corpus[0]], name="custom")
        assert run.name == "custom"

    def test_query_id_fallback_for_anonymous_queries(self, small_corpus):
        params = SearchParams(w=10, tau=1, k_max=1)
        searcher = PKWiseSearcher(small_corpus, params)
        query = small_corpus.encode_query(" ".join(["tok"] * 15))
        run = run_searcher(searcher, [query])
        assert set(run.results_by_query) == {0}  # doc_id -1 -> index

    def test_phase_row_mentions_phases(self, small_corpus):
        params = SearchParams(w=10, tau=1, k_max=2)
        searcher = PKWiseSearcher(small_corpus, params)
        run = run_searcher(searcher, [small_corpus[0]])
        row = run.phase_row()
        assert "sig=" in row and "cand=" in row and "verify=" in row

    def test_empty_workload(self, small_corpus):
        params = SearchParams(w=10, tau=1, k_max=1)
        searcher = PKWiseSearcher(small_corpus, params)
        run = run_searcher(searcher, [])
        assert run.avg_query_seconds == 0.0
