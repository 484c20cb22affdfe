"""Tests for all baseline algorithms (Section 7.1)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SearchParams
from repro.baselines import AdaptSearcher, FaerieSearcher, FBWSearcher
from repro.baselines.bruteforce import BruteForceSearcher
from repro.baselines.fbw import default_winnow_window
from repro.baselines.prefix_join import KPrefixSearcher, StandardPrefixSearcher
from repro.eval import run_searcher
from repro.ordering import GlobalOrder

from .conftest import expected_pairs, pairs_as_set, random_collection

EXACT_BASELINES = [
    (BruteForceSearcher, {}),
    (StandardPrefixSearcher, {}),
    (KPrefixSearcher, {"k": 2}),
    (KPrefixSearcher, {"k": 3}),
    (AdaptSearcher, {}),
    (AdaptSearcher, {"k_limit": 1}),
    (FaerieSearcher, {}),
]


class TestExactness:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_all_exact_baselines_match_reference(self, seed):
        rng = random.Random(seed)
        data, query = random_collection(rng)
        w = rng.randint(3, 10)
        tau = rng.randint(0, min(3, w - 2))
        params = SearchParams(w=w, tau=tau, k_max=1)
        expected = expected_pairs(data, query, w, tau)
        order = GlobalOrder(data, w)
        for cls, kwargs in EXACT_BASELINES:
            try:
                searcher = cls(data, params, order=order, **kwargs)
            except ValueError:
                continue  # k too large for this (w, tau)
            got = pairs_as_set(searcher.search(query))
            assert got == expected, f"{cls.__name__}({kwargs}) diverged"

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_fbw_returns_subset(self, seed):
        rng = random.Random(seed)
        data, query = random_collection(rng)
        w = rng.randint(4, 10)
        tau = rng.randint(0, min(2, w - 2))
        params = SearchParams(w=w, tau=tau, k_max=1)
        order = GlobalOrder(data, w)
        expected = expected_pairs(data, query, w, tau)
        fbw = FBWSearcher(data, params, order=order)
        assert pairs_as_set(fbw.search(query)) <= expected

    def test_fbw_finds_verbatim_copy(self):
        # A verbatim replication must be recoverable via fingerprints.
        from repro.corpus import DocumentCollection

        rng = random.Random(0)
        data = DocumentCollection()
        tokens = [f"t{rng.randrange(200)}" for _ in range(120)]
        data.add_tokens(tokens)
        # A second, unrelated document so frequencies are non-trivial.
        data.add_tokens([f"t{rng.randrange(200)}" for _ in range(120)])
        query = data.encode_query_tokens(tokens[20:80])
        params = SearchParams(w=20, tau=2, k_max=1)
        fbw = FBWSearcher(data, params)
        result = fbw.search(query)
        assert any(pair.overlap == 20 for pair in result.pairs)


class TestAdapt:
    def test_k_limit_clamped_to_window(self):
        from repro.corpus import DocumentCollection

        data = DocumentCollection()
        data.add_text("a b c d e")
        params = SearchParams(w=4, tau=2, k_max=1)
        adapt = AdaptSearcher(data, params, k_limit=10)
        assert adapt.k_limit == 2  # w - tau

    def test_rejects_bad_k_limit(self):
        from repro.corpus import DocumentCollection

        data = DocumentCollection()
        data.add_text("a b c")
        with pytest.raises(ValueError):
            AdaptSearcher(data, SearchParams(w=2, tau=0, k_max=1), k_limit=0)

    def test_index_entries_reported(self, small_corpus):
        params = SearchParams(w=10, tau=2, k_max=1)
        adapt = AdaptSearcher(small_corpus, params)
        # Every window indexes tau + k_limit = 5 prefix entries.
        expected = small_corpus.total_windows(10) * (params.tau + adapt.k_limit)
        assert adapt.index_entries == expected

    def test_adaptive_choice_reduces_candidates(self, small_corpus):
        # With selective extension available, Adapt should not verify
        # more candidates than the 1-prefix baseline.
        params = SearchParams(w=10, tau=3, k_max=1)
        order = GlobalOrder(small_corpus, 10)
        query = small_corpus[3]
        adapt = AdaptSearcher(small_corpus, params, order=order).search(query)
        standard = StandardPrefixSearcher(
            small_corpus, params, order=order
        ).search(query)
        assert adapt.stats.candidate_windows <= standard.stats.candidate_windows
        assert pairs_as_set(adapt) == pairs_as_set(standard)


class TestKPrefix:
    def test_rejects_prefix_longer_than_window(self):
        from repro.corpus import DocumentCollection

        data = DocumentCollection()
        data.add_text("a b c")
        with pytest.raises(ValueError):
            KPrefixSearcher(data, SearchParams(w=3, tau=2, k_max=1), k=2)

    def test_rejects_bad_k(self):
        from repro.corpus import DocumentCollection

        data = DocumentCollection()
        data.add_text("a b c")
        with pytest.raises(ValueError):
            KPrefixSearcher(data, SearchParams(w=3, tau=1, k_max=1), k=0)

    def test_larger_k_fewer_candidates(self, small_corpus):
        params = SearchParams(w=10, tau=3, k_max=1)
        order = GlobalOrder(small_corpus, 10)
        query = small_corpus[3]
        one = KPrefixSearcher(small_corpus, params, k=1, order=order).search(query)
        three = KPrefixSearcher(small_corpus, params, k=3, order=order).search(query)
        assert three.stats.candidate_windows <= one.stats.candidate_windows
        assert pairs_as_set(one) == pairs_as_set(three)


class TestFaerie:
    def test_index_entries(self):
        from repro.corpus import DocumentCollection

        data = DocumentCollection()
        data.add_text("a b a b")  # windows (a b a), (b a b): 2 distinct tokens each
        params = SearchParams(w=3, tau=1, k_max=1)
        faerie = FaerieSearcher(data, params)
        assert faerie.index_entries == 4

    def test_short_query(self, small_corpus):
        params = SearchParams(w=10, tau=1, k_max=1)
        faerie = FaerieSearcher(small_corpus, params)
        query = small_corpus.encode_query("tiny")
        assert faerie.search(query).pairs == []


class TestFBWConfig:
    def test_default_winnow_window(self):
        assert default_winnow_window(25, 2, 5) == 6
        assert default_winnow_window(100, 2, 5) == 24
        assert default_winnow_window(4, 2, 1) == 4  # floor

    def test_rejects_bad_q(self, small_corpus):
        with pytest.raises(ValueError):
            FBWSearcher(small_corpus, SearchParams(w=10, tau=1, k_max=1), q=0)

    def test_index_smaller_than_exact(self, small_corpus):
        params = SearchParams(w=10, tau=2, k_max=1)
        order = GlobalOrder(small_corpus, 10)
        fbw = FBWSearcher(small_corpus, params, order=order)
        adapt = AdaptSearcher(small_corpus, params, order=order)
        assert fbw.index_entries < adapt.index_entries


class TestSearchMany:
    def test_aggregates(self, small_corpus):
        params = SearchParams(w=10, tau=1, k_max=1)
        searcher = StandardPrefixSearcher(small_corpus, params)
        run = run_searcher(searcher, [small_corpus[0], small_corpus[1]])
        assert run.num_queries == 2
        assert run.stats.num_results == sum(
            len(pairs) for pairs in run.results_by_query.values()
        )


class TestBaselineStats:
    def test_adapt_reports_postings_and_candidates(self, small_corpus):
        params = SearchParams(w=10, tau=2, k_max=1)
        adapt = AdaptSearcher(small_corpus, params)
        stats = adapt.search(small_corpus[2]).stats
        assert stats.postings_entries > 0
        assert stats.candidate_windows >= stats.num_results

    def test_fbw_reports_fingerprint_counts(self, small_corpus):
        params = SearchParams(w=10, tau=2, k_max=1)
        fbw = FBWSearcher(small_corpus, params)
        stats = fbw.search(small_corpus[2]).stats
        assert stats.signatures_generated > 0
        assert stats.signature_tokens == stats.signatures_generated * fbw.q
