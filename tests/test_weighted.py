"""Tests for the weighted extension (Appendix C)."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConfigurationError, SearchParams
from repro.baselines.bruteforce import BruteForceSearcher
from repro.core.weighted import (
    UNIVERSAL_SIGNATURE,
    WeightedPKWiseSearcher,
    weighted_overlap,
)
from repro.corpus import DocumentCollection
from repro.ordering import GlobalOrder
from repro.partition.scheme import PartitionScheme

from .conftest import random_collection


def brute_force_weighted(data, query, w, theta, weight_of_token):
    out = set()
    for document in data:
        for i in range(document.num_windows(w)):
            counts = Counter(document.tokens[i : i + w])
            for j in range(max(0, len(query.tokens) - w + 1)):
                query_counts = Counter(query.tokens[j : j + w])
                weight = sum(
                    min(count, query_counts[token]) * weight_of_token(token)
                    for token, count in counts.items()
                )
                if weight >= theta:
                    out.add((document.doc_id, i, j, round(weight, 9)))
    return out


def as_set(pairs):
    return {
        (p.doc_id, p.data_start, p.query_start, round(p.intersection_weight, 9))
        for p in pairs
    }


class TestWeightedOverlap:
    def test_weighted_multiset_intersection(self):
        weights = {0: 2.0, 1: 0.5}
        assert weighted_overlap([0, 0, 1], [0, 1, 1], weights.get) == 2.0 + 0.5

    def test_disjoint_is_zero(self):
        assert weighted_overlap([0], [1], lambda _r: 3.0) == 0.0


class TestWeightedSearch:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_matches_bruteforce(self, seed):
        rng = random.Random(seed)
        data, query = random_collection(rng, max_docs=3, max_len=25, max_vocab=12)
        w = rng.randint(3, 8)
        theta = rng.uniform(0.5, w * 1.2)
        # Deterministic positive weights per token id.
        weight_of = lambda token_id: 0.5 + (token_id % 5) * 0.7  # noqa: E731
        searcher = WeightedPKWiseSearcher(
            data, w=w, theta_weight=theta, weight_of_token=weight_of
        )
        pairs, _stats = searcher.search(query)
        expected = brute_force_weighted(data, query, w, theta, weight_of)
        assert as_set(pairs) == expected

    def test_unit_weights_recover_unweighted(self):
        rng = random.Random(5)
        data, query = random_collection(rng, max_docs=3, max_len=30, max_vocab=10)
        w, tau = 6, 2
        params = SearchParams(w=w, tau=tau, k_max=1)
        order = GlobalOrder(data, w)
        unweighted = BruteForceSearcher(data, params, order=order).search(query)
        weighted = WeightedPKWiseSearcher(
            data, w=w, theta_weight=w - tau, weight_of_token=lambda _t: 1.0,
            order=order,
        )
        pairs, _ = weighted.search(query)
        assert {(p.doc_id, p.data_start, p.query_start) for p in pairs} == {
            (p.doc_id, p.data_start, p.query_start) for p in unweighted.pairs
        }

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_k2_scheme_with_fallback_is_exact(self, seed):
        # k_max = 2 scheme exercises the universal-signature fallback for
        # unfilterable windows; results must remain exact.
        rng = random.Random(seed)
        data, query = random_collection(rng, max_docs=2, max_len=20, max_vocab=8)
        w = rng.randint(3, 6)
        theta = rng.uniform(0.5, w)
        weight_of = lambda token_id: 0.2 + (token_id % 3) * 1.3  # noqa: E731
        order = GlobalOrder(data, w)
        scheme = PartitionScheme(
            universe_size=order.universe_size,
            borders=(order.universe_size // 2,),
        )
        searcher = WeightedPKWiseSearcher(
            data, w=w, theta_weight=theta, weight_of_token=weight_of,
            scheme=scheme, order=order,
        )
        pairs, _ = searcher.search(query)
        assert as_set(pairs) == brute_force_weighted(data, query, w, theta, weight_of)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_subpartitioned_scheme_is_exact(self, seed):
        # m > 1 sub-partitions in the weighted case (Appendix C + Sec. 6).
        rng = random.Random(seed)
        data, query = random_collection(rng, max_docs=2, max_len=18, max_vocab=8)
        w = rng.randint(3, 6)
        theta = rng.uniform(0.5, w)
        weight_of = lambda token_id: 0.4 + (token_id % 4) * 0.9  # noqa: E731
        order = GlobalOrder(data, w)
        scheme = PartitionScheme(
            universe_size=order.universe_size,
            borders=(order.universe_size // 3,),
            m=2,
        )
        searcher = WeightedPKWiseSearcher(
            data, w=w, theta_weight=theta, weight_of_token=weight_of,
            scheme=scheme, order=order,
        )
        pairs, _ = searcher.search(query)
        assert as_set(pairs) == brute_force_weighted(data, query, w, theta, weight_of)

    def test_short_query(self):
        data = DocumentCollection()
        data.add_text("a b c d e f")
        searcher = WeightedPKWiseSearcher(
            data, w=4, theta_weight=2.0, weight_of_token=lambda _t: 1.0
        )
        pairs, stats = searcher.search(data.encode_query("a b"))
        assert pairs == [] and stats.num_results == 0


class TestValidation:
    def _data(self):
        data = DocumentCollection()
        data.add_text("a b c d")
        return data

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ConfigurationError):
            WeightedPKWiseSearcher(
                self._data(), w=2, theta_weight=0.0, weight_of_token=lambda _t: 1.0
            )

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ConfigurationError):
            WeightedPKWiseSearcher(
                self._data(), w=2, theta_weight=1.0, weight_of_token=lambda _t: 0.0
            )

    def test_rejects_bad_default_weight(self):
        with pytest.raises(ConfigurationError):
            WeightedPKWiseSearcher(
                self._data(), w=2, theta_weight=1.0,
                weight_of_token=lambda _t: 1.0, default_weight=-1.0,
            )

    def test_query_only_tokens_use_default_weight(self):
        data = self._data()
        searcher = WeightedPKWiseSearcher(
            data, w=2, theta_weight=1.0, weight_of_token=lambda _t: 1.0,
            default_weight=2.5,
        )
        assert searcher.weight_of_rank(-1) == 2.5


class TestWeightedFallbackDeterministic:
    def test_universal_signature_used_when_unfilterable(self):
        # Everything 2-wise; unit weights; w=3, theta=0.5: a window's
        # weighted coverage (sum of n-1 smallest weights = 2) is below
        # its budget wt - theta = 2.5, so prefix filtering is unsound
        # for every window and the sentinel must kick in.
        data = DocumentCollection()
        data.add_tokens(["a", "b", "c", "d", "e"])
        order = GlobalOrder(data, 3)
        scheme = PartitionScheme.all_k(order.universe_size, 2)
        searcher = WeightedPKWiseSearcher(
            data, w=3, theta_weight=0.5, weight_of_token=lambda _t: 1.0,
            scheme=scheme, order=order,
        )
        assert UNIVERSAL_SIGNATURE in searcher._postings
        # Exactness despite the fallback: the identity windows match.
        query = data.encode_query_tokens(["a", "b", "c"])
        pairs, _stats = searcher.search(query)
        assert any(
            p.data_start == 0 and p.intersection_weight == 3.0 for p in pairs
        )

    def test_no_fallback_with_single_class(self):
        data = DocumentCollection()
        data.add_tokens(["a", "b", "c", "d"])
        searcher = WeightedPKWiseSearcher(
            data, w=3, theta_weight=0.5, weight_of_token=lambda _t: 1.0
        )
        assert UNIVERSAL_SIGNATURE not in searcher._postings
