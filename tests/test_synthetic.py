"""Tests for the synthetic corpus generator and dataset profiles."""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro import CorpusError
from repro.corpus.synthetic import (
    DATASET_PROFILES,
    DatasetProfile,
    ReuseSpec,
    SyntheticCorpusGenerator,
    make_profile_collection,
)
from repro.corpus.plagiarism import ObfuscationLevel


def effective_universe_size(data) -> int:
    """Distinct token ids that actually occur in the data documents."""
    return len({token for document in data for token in document.tokens})


def log_log_slope(frequencies: list[int]) -> float:
    """Least-squares slope of log(frequency) vs log(rank): a Zipf sample
    with exponent ``s`` has slope close to ``-s`` over its head."""
    pairs = [
        (math.log(rank + 1), math.log(freq))
        for rank, freq in enumerate(sorted(frequencies, reverse=True))
        if freq > 0
    ]
    if len(pairs) < 2:
        raise ValueError("need at least two non-zero frequencies")
    mean_x = sum(x for x, _ in pairs) / len(pairs)
    mean_y = sum(y for _, y in pairs) / len(pairs)
    return sum((x - mean_x) * (y - mean_y) for x, y in pairs) / sum(
        (x - mean_x) ** 2 for x, _ in pairs
    )


class TestProfiles:
    def test_table1_values_present(self):
        assert DATASET_PROFILES["REUTERS"].num_documents == 7_791
        assert DATASET_PROFILES["TREC"].avg_doc_length == pytest.approx(198.2)
        assert DATASET_PROFILES["PAN"].vocabulary_size == 1_846_623

    def test_scaled_counts(self):
        scaled = DATASET_PROFILES["REUTERS"].scaled(0.01)
        assert scaled.num_documents == 78
        assert scaled.num_queries == 10
        # Vocabulary scales by sqrt(scale) (Heaps' law).
        assert scaled.vocabulary_size == round(33_260 * 0.1)
        assert scaled.avg_doc_length == pytest.approx(237.2)  # unchanged

    def test_scaled_floor(self):
        scaled = DATASET_PROFILES["REUTERS"].scaled(1e-6)
        assert scaled.num_documents >= 2
        assert scaled.vocabulary_size >= 200

    def test_scale_must_be_positive(self):
        with pytest.raises(CorpusError):
            DATASET_PROFILES["REUTERS"].scaled(0)


class TestGenerator:
    def _profile(self, **overrides):
        defaults = dict(
            name="TINY",
            num_documents=20,
            num_queries=3,
            avg_doc_length=150,
            avg_query_length=120,
            vocabulary_size=500,
        )
        defaults.update(overrides)
        return DatasetProfile(**defaults)

    def test_deterministic(self):
        profile = self._profile()
        a = SyntheticCorpusGenerator(profile, seed=5).generate_data()
        b = SyntheticCorpusGenerator(profile, seed=5).generate_data()
        assert [d.tokens for d in a] == [d.tokens for d in b]

    def test_different_seeds_differ(self):
        profile = self._profile()
        a = SyntheticCorpusGenerator(profile, seed=1).generate_data()
        b = SyntheticCorpusGenerator(profile, seed=2).generate_data()
        assert [d.tokens for d in a] != [d.tokens for d in b]

    def test_document_count_and_min_length(self):
        profile = self._profile(min_doc_length=100)
        data = SyntheticCorpusGenerator(profile, seed=0).generate_data()
        assert len(data) == 20
        assert all(len(document) >= 100 for document in data)

    def test_token_ids_within_vocabulary(self):
        profile = self._profile()
        data = SyntheticCorpusGenerator(profile, seed=0).generate_data()
        assert effective_universe_size(data) <= profile.vocabulary_size
        for document in data:
            assert all(0 <= t < profile.vocabulary_size for t in document.tokens)

    def test_zipf_slope(self):
        # The head of the frequency distribution should follow the
        # configured power law within generous tolerance.
        profile = self._profile(
            num_documents=40, avg_doc_length=400, vocabulary_size=2000, zipf_s=1.1
        )
        data = SyntheticCorpusGenerator(profile, seed=3).generate_data()
        counter = Counter()
        for document in data:
            counter.update(document.tokens)
        top = [count for _token, count in counter.most_common(100)]
        slope = log_log_slope(top)
        assert -1.6 < slope < -0.6

    def test_queries_generated(self):
        profile = self._profile()
        queries = SyntheticCorpusGenerator(profile, seed=0).generate_queries()
        assert len(queries) == profile.num_queries

    def test_log_log_slope_needs_two_points(self):
        with pytest.raises(ValueError):
            log_log_slope([5])


class TestMakeProfileCollection:
    def test_returns_consistent_workload(self):
        data, queries, truth = make_profile_collection("REUTERS", scale=0.002, seed=9)
        assert len(data) >= 2
        assert len(queries) >= 1
        # Default reuse: one case per query (when donors exist).
        assert len(truth) <= len(queries)
        for pair in truth:
            lo, hi = pair.query_span
            assert 0 <= lo <= hi < len(queries[pair.query_id])
            dlo, dhi = pair.data_span
            assert 0 <= dlo <= dhi < len(data[pair.data_doc_id])

    def test_unknown_profile(self):
        with pytest.raises(CorpusError):
            make_profile_collection("NOPE")

    def test_reuse_spec_levels_cycle(self):
        spec = ReuseSpec(levels=(ObfuscationLevel.NONE,), segment_length=50)
        _data, _queries, truth = make_profile_collection(
            "REUTERS", scale=0.002, seed=4, reuse=spec
        )
        assert all(pair.level is ObfuscationLevel.NONE for pair in truth)

    def test_injected_segment_matches_none_level(self):
        spec = ReuseSpec(levels=(ObfuscationLevel.NONE,), segment_length=40)
        data, queries, truth = make_profile_collection(
            "REUTERS", scale=0.002, seed=11, reuse=spec
        )
        for pair in truth:
            dlo, dhi = pair.data_span
            qlo, qhi = pair.query_span
            original = data[pair.data_doc_id].tokens[dlo : dhi + 1]
            copied = queries[pair.query_id].tokens[qlo : qhi + 1]
            assert tuple(copied) == tuple(original)  # NONE = verbatim copy

    def test_deterministic_workload(self):
        a = make_profile_collection("REUTERS", scale=0.002, seed=21)
        b = make_profile_collection("REUTERS", scale=0.002, seed=21)
        assert [d.tokens for d in a[0]] == [d.tokens for d in b[0]]
        assert [q.tokens for q in a[1]] == [q.tokens for q in b[1]]
        assert a[2] == b[2]
