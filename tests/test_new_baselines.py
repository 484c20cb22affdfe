"""Tests for the Winnowing and MinHash-LSH baselines."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SearchParams
from repro.baselines import MinHashLSHSearcher, WinnowingSearcher
from repro.baselines.minhash import sliding_window_minima
from repro.corpus import DocumentCollection
from repro.ordering import GlobalOrder

from .conftest import expected_pairs, pairs_as_set, random_collection


class TestSlidingWindowMinima:
    def test_basic(self):
        assert sliding_window_minima([3, 1, 4, 1, 5], 2) == [1, 1, 1, 1]
        assert sliding_window_minima([3, 1, 4, 1, 5], 3) == [1, 1, 1]

    def test_window_equals_length(self):
        assert sliding_window_minima([5, 2, 9], 3) == [2]

    def test_too_short(self):
        assert sliding_window_minima([1, 2], 5) == []

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.integers(-100, 100), min_size=1, max_size=50),
        w=st.integers(1, 12),
    )
    def test_matches_naive(self, values, w):
        expected = [
            min(values[i : i + w]) for i in range(max(0, len(values) - w + 1))
        ]
        assert sliding_window_minima(values, w) == expected


class TestWinnowing:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_subset_of_exact(self, seed):
        rng = random.Random(seed)
        data, query = random_collection(rng)
        w = rng.randint(4, 10)
        tau = rng.randint(0, min(2, w - 2))
        params = SearchParams(w=w, tau=tau, k_max=1)
        order = GlobalOrder(data, w)
        expected = expected_pairs(data, query, w, tau)
        winnowing = WinnowingSearcher(data, params, order=order)
        assert pairs_as_set(winnowing.search(query)) <= expected

    def test_finds_verbatim_copy(self):
        rng = random.Random(1)
        data = DocumentCollection()
        tokens = [f"t{rng.randrange(300)}" for _ in range(150)]
        data.add_tokens(tokens)
        query = data.encode_query_tokens(tokens[30:120])
        params = SearchParams(w=20, tau=2, k_max=1)
        winnowing = WinnowingSearcher(data, params)
        assert any(p.overlap == 20 for p in winnowing.search(query).pairs)

    def test_differs_from_fbw_selection(self):
        # Same corpus, different fingerprints (hash-min vs frequency-min).
        from repro.baselines import FBWSearcher

        rng = random.Random(2)
        data = DocumentCollection()
        for _ in range(3):
            data.add_tokens([f"t{rng.randrange(40)}" for _ in range(120)])
        params = SearchParams(w=20, tau=2, k_max=1)
        order = GlobalOrder(data, 20)
        fbw = FBWSearcher(data, params, order=order)
        winnowing = WinnowingSearcher(data, params, order=order)
        assert set(fbw._fingerprints) != set(winnowing._fingerprints)


class TestMinHashLSH:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_subset_of_exact(self, seed):
        rng = random.Random(seed)
        data, query = random_collection(rng, max_docs=2, max_len=30)
        w = rng.randint(4, 8)
        tau = rng.randint(0, min(2, w - 2))
        params = SearchParams(w=w, tau=tau, k_max=1)
        order = GlobalOrder(data, w)
        expected = expected_pairs(data, query, w, tau)
        searcher = MinHashLSHSearcher(data, params, order=order)
        assert pairs_as_set(searcher.search(query)) <= expected

    def test_finds_verbatim_copy(self):
        rng = random.Random(4)
        data = DocumentCollection()
        tokens = [f"t{rng.randrange(500)}" for _ in range(200)]
        data.add_tokens(tokens)
        query = data.encode_query_tokens(tokens[40:160])
        params = SearchParams(w=25, tau=3, k_max=1)
        searcher = MinHashLSHSearcher(data, params)
        pairs = searcher.search(query).pairs
        # Identical windows share every band: always candidates.
        assert sum(1 for p in pairs if p.overlap == 25) >= 90

    def test_rejects_bad_band_config(self):
        data = DocumentCollection()
        data.add_text("a b c d e")
        params = SearchParams(w=3, tau=1, k_max=1)
        with pytest.raises(ValueError):
            MinHashLSHSearcher(data, params, num_hashes=10, bands=3)
        with pytest.raises(ValueError):
            MinHashLSHSearcher(data, params, num_hashes=0, bands=1)

    def test_deterministic_given_seed(self):
        rng = random.Random(6)
        data = DocumentCollection()
        data.add_tokens([f"t{rng.randrange(50)}" for _ in range(80)])
        query = data.encode_query_tokens([f"t{rng.randrange(50)}" for _ in range(40)])
        params = SearchParams(w=10, tau=2, k_max=1)
        a = MinHashLSHSearcher(data, params, seed=3).search(query)
        b = MinHashLSHSearcher(data, params, seed=3).search(query)
        assert pairs_as_set(a) == pairs_as_set(b)

    def test_short_query(self):
        data = DocumentCollection()
        data.add_text("a b c d e f g h i j")
        params = SearchParams(w=5, tau=1, k_max=1)
        searcher = MinHashLSHSearcher(data, params)
        assert searcher.search(data.encode_query("a b")).pairs == []

    def test_index_entries(self):
        data = DocumentCollection()
        data.add_text("a b c d e f")
        params = SearchParams(w=3, tau=1, k_max=1)
        searcher = MinHashLSHSearcher(data, params, num_hashes=8, bands=4)
        # 4 windows x 4 bands.
        assert searcher.index_entries == 16
