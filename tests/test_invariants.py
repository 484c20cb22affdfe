"""Cross-module invariants of the whole search pipeline.

These properties hold for *any* valid configuration and are the
strongest correctness statements in the suite:

* **Scheme invariance** — the partition scheme is pure optimization;
  every valid scheme (any borders, any m) yields the identical result
  set (Theorems 1/2).
* **Threshold monotonicity** — loosening tau only adds results.
* **Context independence** — adding unrelated documents never changes
  the matches of existing ones.
* **Determinism** — the full pipeline is reproducible call-to-call.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConfigurationError, SearchParams
from repro.core.pkwise import PKWiseSearcher
from repro.ordering import GlobalOrder
from repro.partition.scheme import PartitionScheme

from .conftest import pairs_as_set, random_collection


def random_scheme(rng: random.Random, universe: int, m_max: int = 3):
    k_max = rng.randint(1, 4)
    borders = tuple(sorted(rng.randint(0, universe) for _ in range(k_max - 1)))
    m = rng.randint(1, m_max)
    return PartitionScheme(universe_size=universe, borders=borders, m=m)


class TestSchemeInvariance:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_any_scheme_same_results(self, seed):
        rng = random.Random(seed)
        data, query = random_collection(rng)
        w = rng.randint(4, 10)
        tau = rng.randint(0, min(3, w - 1))
        order = GlobalOrder(data, w)
        reference = None
        for _ in range(3):
            scheme = random_scheme(rng, order.universe_size)
            try:
                params = SearchParams(
                    w=w, tau=tau, k_max=scheme.k_max, m=scheme.m
                )
            except ConfigurationError:
                continue  # scheme too aggressive for this w
            searcher = PKWiseSearcher(data, params, scheme=scheme, order=order)
            got = pairs_as_set(searcher.search(query))
            if reference is None:
                reference = got
            else:
                assert got == reference, f"scheme {scheme} changed results"


class TestThresholdMonotonicity:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_results_grow_with_tau(self, seed):
        rng = random.Random(seed)
        data, query = random_collection(rng)
        w = rng.randint(5, 10)
        order = GlobalOrder(data, w)
        previous_pairs = None
        for tau in range(0, min(4, w - 1)):
            params = SearchParams(w=w, tau=tau, k_max=2)
            searcher = PKWiseSearcher(data, params, order=order)
            got = {
                (p.doc_id, p.data_start, p.query_start)
                for p in searcher.search(query).pairs
            }
            if previous_pairs is not None:
                assert previous_pairs <= got
            previous_pairs = got


class TestContextIndependence:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_adding_noise_documents_preserves_matches(self, seed):
        rng = random.Random(seed)
        data, query = random_collection(rng)
        w, tau = 6, 2
        params = SearchParams(w=w, tau=tau, k_max=2)
        baseline = pairs_as_set(PKWiseSearcher(data, params).search(query))
        num_original = len(data)
        # Add unrelated documents over a disjoint token namespace.
        for extra in range(2):
            data.add_tokens([f"noise{seed}_{extra}_{i}" for i in range(20)])
        extended = pairs_as_set(PKWiseSearcher(data, params).search(query))
        restricted = {t for t in extended if t[0] < num_original}
        assert restricted == baseline


class TestDeterminism:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_pipeline_reproducible(self, seed):
        rng_a = random.Random(seed)
        rng_b = random.Random(seed)
        data_a, query_a = random_collection(rng_a)
        data_b, query_b = random_collection(rng_b)
        params = SearchParams(w=5, tau=1, k_max=2)
        result_a = PKWiseSearcher(data_a, params).search(query_a)
        result_b = PKWiseSearcher(data_b, params).search(query_b)
        assert result_a.sorted_pairs() == result_b.sorted_pairs()

    def test_stats_counters_are_deterministic(self):
        rng = random.Random(9)
        data, query = random_collection(rng)
        params = SearchParams(w=6, tau=2, k_max=3)
        searcher = PKWiseSearcher(data, params)
        first = searcher.search(query).stats
        second = searcher.search(query).stats
        assert first.signature_tokens == second.signature_tokens
        assert first.postings_entries == second.postings_entries
        assert first.hash_ops == second.hash_ops
        assert first.candidate_windows == second.candidate_windows


class TestResultSoundness:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_every_result_satisfies_constraint(self, seed):
        from repro.windows.rolling import window_overlap

        rng = random.Random(seed)
        data, query = random_collection(rng)
        w = rng.randint(4, 9)
        tau = rng.randint(0, min(3, w - 1))
        try:
            params = SearchParams(w=w, tau=tau, k_max=2)
        except ConfigurationError:
            return  # drawn parameters violate the Theorem 2 bound
        searcher = PKWiseSearcher(data, params)
        for pair in searcher.search(query).pairs:
            data_window = data[pair.doc_id].tokens[
                pair.data_start : pair.data_start + w
            ]
            query_window = query.tokens[
                pair.query_start : pair.query_start + w
            ]
            overlap = window_overlap(data_window, query_window)
            assert overlap == pair.overlap
            assert w - overlap <= tau
