"""Tests for passage merging and filtering."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MatchPair
from repro.postprocess import Passage, filter_passages, merge_passages


def pair(doc=0, d=0, q=0, overlap=10):
    return MatchPair(doc, d, q, overlap)


class TestMergePassages:
    def test_empty(self):
        assert merge_passages([], w=10) == []

    def test_single_pair(self):
        passages = merge_passages([pair(0, 5, 7)], w=10)
        assert passages == [
            Passage(
                doc_id=0,
                data_span=(5, 14),
                query_span=(7, 16),
                num_pairs=1,
                max_overlap=10,
            )
        ]

    def test_diagonal_run_merges(self):
        pairs = [pair(0, d=10 + i, q=20 + i) for i in range(30)]
        passages = merge_passages(pairs, w=10)
        assert len(passages) == 1
        passage = passages[0]
        assert passage.query_span == (20, 58)
        assert passage.data_span == (10, 48)
        assert passage.num_pairs == 30

    def test_distant_matches_stay_separate(self):
        pairs = [pair(0, d=0, q=0), pair(0, d=500, q=500)]
        passages = merge_passages(pairs, w=10)
        assert len(passages) == 2

    def test_different_documents_never_merge(self):
        pairs = [pair(0, 0, 0), pair(1, 0, 0)]
        passages = merge_passages(pairs, w=10)
        assert {p.doc_id for p in passages} == {0, 1}

    def test_different_diagonals_stay_separate(self):
        # Same query region matching two distant regions of one doc.
        pairs = [pair(0, d=0, q=0), pair(0, d=400, q=2)]
        passages = merge_passages(pairs, w=10)
        assert len(passages) == 2

    def test_diagonal_drift_tolerated(self):
        # Insertions shift the diagonal gradually; drift within the gap
        # keeps the passage whole.
        pairs = [pair(0, d=i + i // 10, q=i) for i in range(0, 40, 2)]
        passages = merge_passages(pairs, w=10, join_gap=8)
        assert len(passages) == 1

    def test_max_overlap_tracked(self):
        pairs = [pair(0, 0, 0, overlap=8), pair(0, 1, 1, overlap=10)]
        passages = merge_passages(pairs, w=10)
        assert passages[0].max_overlap == 10

    def test_default_join_gap_is_half_window(self):
        # Gap of w//2 - 1 merges; a much larger gap does not.
        near = [pair(0, 0, 0), pair(0, 13, 13)]
        far = [pair(0, 0, 0), pair(0, 40, 40)]
        assert len(merge_passages(near, w=10)) == 1  # windows touch (0-9, 13-22)?
        assert len(merge_passages(far, w=10)) == 2

    def test_passage_length(self):
        passage = Passage(0, (0, 9), (5, 24), 3, 10)
        assert passage.length == 20


class TestFilterPassages:
    def _passages(self):
        return [
            Passage(0, (0, 9), (0, 9), num_pairs=1, max_overlap=10),
            Passage(0, (0, 49), (0, 49), num_pairs=20, max_overlap=10),
        ]

    def test_min_pairs(self):
        kept = filter_passages(self._passages(), min_pairs=5)
        assert len(kept) == 1 and kept[0].num_pairs == 20

    def test_min_length(self):
        kept = filter_passages(self._passages(), min_length=30)
        assert len(kept) == 1 and kept[0].length == 50

    def test_no_filters_keeps_all(self):
        assert len(filter_passages(self._passages())) == 2


class TestPassageProperties:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_every_match_covered_by_exactly_one_passage(self, seed):
        rng = random.Random(seed)
        w = rng.randint(3, 15)
        pairs = []
        for _ in range(rng.randint(0, 40)):
            doc = rng.randrange(3)
            q = rng.randrange(100)
            d = max(0, q + rng.randint(-5, 5))
            pairs.append(MatchPair(doc, d, q, w))
        passages = merge_passages(pairs, w)
        for pair in pairs:
            containing = [
                p
                for p in passages
                if p.doc_id == pair.doc_id
                and p.query_span[0] <= pair.query_start
                and pair.query_start + w - 1 <= p.query_span[1]
                and p.data_span[0] <= pair.data_start
                and pair.data_start + w - 1 <= p.data_span[1]
            ]
            assert containing, f"pair {pair} not covered"

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_pair_counts_conserved(self, seed):
        rng = random.Random(seed)
        w = rng.randint(3, 10)
        pairs = [
            MatchPair(0, rng.randrange(50), rng.randrange(50), w)
            for _ in range(rng.randint(0, 30))
        ]
        passages = merge_passages(pairs, w)
        assert sum(p.num_pairs for p in passages) == len(pairs)

    def test_filter_composes(self):
        pairs = [MatchPair(0, i, i, 10) for i in range(20)]
        passages = merge_passages(pairs, 10)
        assert filter_passages(passages, min_pairs=21) == []
        assert filter_passages(passages, min_pairs=20) == passages
