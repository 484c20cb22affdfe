"""End-to-end integration tests on synthetic profile workloads."""

from __future__ import annotations

import random

import pytest

from repro import SearchParams
from repro.baselines import AdaptSearcher, FBWSearcher
from repro.baselines.prefix_join import StandardPrefixSearcher
from repro.core.pkwise import PKWiseSearcher
from repro.corpus import DocumentCollection
from repro.corpus.plagiarism import ObfuscationLevel
from repro.corpus.synthetic import ReuseSpec, make_profile_collection
from repro.eval import evaluate_quality, run_searcher
from repro.ordering import GlobalOrder

from .conftest import pairs_as_set


@pytest.fixture(scope="module")
def workload():
    data, queries, truth = make_profile_collection(
        "REUTERS",
        scale=0.003,
        seed=17,
        reuse=ReuseSpec(segment_length=80),
    )
    params = SearchParams(w=25, tau=5, k_max=3)
    order = GlobalOrder(data, params.w)
    return data, queries, truth, params, order


class TestAdaptPrefix:
    def test_adapt_probes_its_whole_prefix(self, workload):
        # Query 1 is where AdaptSearcher probing one key short of its
        # mandatory tau + 1 prefix lost pairs.  Every exact algorithm
        # equals the reference on random collections in test_pkwise.py
        # and test_baselines.py; this is the profile query that caught it.
        data, queries, _truth, params, order = workload
        reference = pairs_as_set(PKWiseSearcher(data, params, order=order).search(queries[1]))
        adapt = AdaptSearcher(data, params.with_k_max(1), order=order)
        assert reference and pairs_as_set(adapt.search(queries[1])) == reference


class TestFindsInjectedReuse:
    def test_pkwise_recall_on_clean_copies(self):
        data, queries, truth = make_profile_collection(
            "REUTERS",
            scale=0.003,
            seed=23,
            reuse=ReuseSpec(
                levels=(ObfuscationLevel.NONE,), segment_length=80
            ),
        )
        params = SearchParams(w=25, tau=5, k_max=3)
        searcher = PKWiseSearcher(data, params)
        run = run_searcher(searcher, queries)
        report = evaluate_quality(run.results_by_query, truth, params.w)
        assert report.recall == 1.0  # verbatim copies are always found

    def test_recall_degrades_with_obfuscation_for_fbw(self):
        data, queries, truth = make_profile_collection(
            "REUTERS",
            scale=0.003,
            seed=29,
            reuse=ReuseSpec(segment_length=80),
        )
        params = SearchParams(w=25, tau=5, k_max=3)
        order = GlobalOrder(data, params.w)
        exact = run_searcher(PKWiseSearcher(data, params, order=order), queries)
        approx = run_searcher(
            FBWSearcher(data, params.with_k_max(1), order=order), queries
        )
        exact_report = evaluate_quality(exact.results_by_query, truth, params.w)
        approx_report = evaluate_quality(approx.results_by_query, truth, params.w)
        assert approx_report.recall <= exact_report.recall
        assert exact_report.recall > 0.5


class TestIndexShapes:
    def test_pkwise_index_smaller_than_adapt(self, workload):
        # Figure 7's shape: interval postings on prefixes are much
        # smaller than Adapt's per-window prefix entries.
        data, _queries, _truth, params, order = workload
        pkwise = PKWiseSearcher(data, params, order=order)
        adapt = AdaptSearcher(data, params.with_k_max(1), order=order)
        assert pkwise.index.num_postings < adapt.index_entries

    def test_fbw_index_smallest(self, workload):
        data, _queries, _truth, params, order = workload
        pkwise = PKWiseSearcher(data, params, order=order)
        fbw = FBWSearcher(data, params.with_k_max(1), order=order)
        assert fbw.index_entries < pkwise.index.num_postings


class TestScalabilityMechanics:
    def test_subset_scaling_preserves_results(self, workload):
        # Searching a 50% subset returns a subset of the full results
        # when using a shared order (Figure 9's mechanics).
        data, queries, _truth, params, order = workload
        half = data.subset(range(0, len(data), 2))
        full_searcher = PKWiseSearcher(data, params, order=order)
        half_order = GlobalOrder(half, params.w)
        half_searcher = PKWiseSearcher(half, params, order=half_order)
        query = queries[0]
        full = pairs_as_set(full_searcher.search(query))
        half_pairs = half_searcher.search(query).pairs
        # Map subset doc ids back to original ids (2 * id).
        remapped = {
            (2 * p.doc_id, p.data_start, p.query_start, p.overlap)
            for p in half_pairs
        }
        assert remapped <= full


class TestSharedOrderConsistency:
    def test_algorithms_with_shared_order_vs_private_orders(self):
        # Searchers must produce identical results whether they share a
        # GlobalOrder instance or each build their own (same data).
        rng = random.Random(12)
        data = DocumentCollection()
        for _ in range(3):
            data.add_tokens([f"t{rng.randrange(40)}" for _ in range(60)])
        query = data.encode_query_tokens(
            [f"t{rng.randrange(40)}" for _ in range(40)]
        )
        params = SearchParams(w=10, tau=2, k_max=2)
        shared = GlobalOrder(data, 10)
        with_shared = PKWiseSearcher(data, params, order=shared).search(query)
        with_private = PKWiseSearcher(data, params).search(query)
        assert pairs_as_set(with_shared) == pairs_as_set(with_private)

    def test_baseline_and_core_share_rank_docs_shape(self, small_corpus):
        params = SearchParams(w=10, tau=1, k_max=1)
        order = GlobalOrder(small_corpus, 10)
        core = PKWiseSearcher(small_corpus, params, order=order)
        baseline = StandardPrefixSearcher(small_corpus, params, order=order)
        assert list(core.rank_docs) == baseline.rank_docs
