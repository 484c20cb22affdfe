"""Tests for the interval index and the window-level inverted index."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.interval_index import IntervalIndex
from repro.index.intervals import WindowInterval, merge_intervals
from repro.index.inverted import WindowInvertedIndex
from repro.partition.scheme import PartitionScheme
from repro.signatures.generate import generate_signatures


class TestIntervals:
    def test_merge_overlapping(self):
        merged = merge_intervals(
            [WindowInterval(0, 1, 5), WindowInterval(0, 3, 8)]
        )
        assert merged == [WindowInterval(0, 1, 8)]

    def test_merge_touching(self):
        merged = merge_intervals(
            [WindowInterval(0, 1, 2), WindowInterval(0, 3, 4)]
        )
        assert merged == [WindowInterval(0, 1, 4)]

    def test_no_merge_across_documents(self):
        intervals = [WindowInterval(0, 1, 5), WindowInterval(1, 1, 5)]
        assert merge_intervals(intervals) == intervals

    def test_gap_merge_rule(self):
        # Section 4.3: merge when u2 - v1 < w/2.
        a = WindowInterval(0, 0, 10)
        b = WindowInterval(0, 18, 20)  # gap u2 - v1 = 8
        assert merge_intervals([a, b], merge_gap=10) == [WindowInterval(0, 0, 20)]
        assert merge_intervals([a, b], merge_gap=8) == [a, b]

    def test_contained_interval(self):
        merged = merge_intervals(
            [WindowInterval(0, 1, 10), WindowInterval(0, 3, 5)]
        )
        assert merged == [WindowInterval(0, 1, 10)]

    def test_interval_str(self):
        assert str(WindowInterval(2, 3, 7)) == "d2[3,7]"


def interval_presence(index: IntervalIndex, signature, num_windows: int) -> set[int]:
    """Window starts covered by the signature's intervals."""
    covered = set()
    for interval in index.probe(signature):
        covered.update(range(interval.u, interval.v + 1))
    assert all(0 <= start < num_windows for start in covered)
    return covered


class TestIntervalIndex:
    def test_paper_example5_intervals(self):
        E, G, A, F, C, B, D = 4, 6, 0, 5, 2, 1, 3
        ranks = [E, G, A, F, C, B, D]
        scheme = PartitionScheme(universe_size=7, borders=(4,))
        index = IntervalIndex(4, 1, scheme)
        index.index_document(0, ranks)
        assert index.probe((A,)) == [WindowInterval(0, 0, 2)]
        assert index.probe((E, F)) == [WindowInterval(0, 0, 0)]
        assert index.probe((C,)) == [
            WindowInterval(0, 1, 1),
            WindowInterval(0, 3, 3),
        ]
        assert index.probe((B,)) == [WindowInterval(0, 2, 3)]

    def test_probe_missing_signature(self):
        scheme = PartitionScheme.single(5)
        index = IntervalIndex(2, 0, scheme)
        index.index_document(0, [0, 1, 2])
        assert index.probe((4,)) == []
        assert (0,) in index

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_intervals_are_maximal_and_exact(self, seed):
        rng = random.Random(seed)
        universe = rng.randint(3, 15)
        k_max = rng.randint(1, 3)
        borders = tuple(sorted(rng.randint(0, universe) for _ in range(k_max - 1)))
        scheme = PartitionScheme(universe_size=universe, borders=borders)
        w = rng.randint(2, 8)
        tau = rng.randint(0, min(3, w - 1))
        ranks = [rng.randrange(universe) for _ in range(rng.randint(w, 40))]
        num_windows = len(ranks) - w + 1

        index = IntervalIndex(w, tau, scheme)
        index.index_document(0, ranks)

        # Reference presence per window.
        presence: dict = {}
        for start in range(num_windows):
            window = sorted(ranks[start : start + w])
            for signature in set(generate_signatures(window, tau, scheme)):
                presence.setdefault(signature, set()).add(start)

        # Exactness: the index covers exactly the presence sets.
        all_signatures = set(presence)
        for signature in all_signatures:
            assert interval_presence(index, signature, num_windows) == presence[
                signature
            ]
        # Maximality: intervals of one signature are disjoint and
        # non-adjacent.
        for signature in all_signatures:
            intervals = sorted(index.probe(signature))
            for left, right in zip(intervals, intervals[1:]):
                assert right.u > left.v + 1

    def test_multiple_documents(self):
        scheme = PartitionScheme.single(4)
        index = IntervalIndex(2, 0, scheme)
        index.index_document(0, [0, 1, 2])
        index.index_document(1, [0, 0, 0])
        assert index.num_documents == 2
        assert {interval.doc_id for interval in index.probe((0,))} == {0, 1}

    def test_build_stats_accumulate(self):
        scheme = PartitionScheme.single(5)
        index = IntervalIndex(2, 0, scheme)
        index.index_document(0, [0, 1, 2, 3])
        assert index.build_stats["generated_signatures"] > 0
        assert index.num_windows == 3


class TestWindowInvertedIndex:
    def test_postings_per_window(self):
        scheme = PartitionScheme.single(4)
        index = WindowInvertedIndex(2, 0, scheme)
        index.index_document(0, [0, 1, 0])
        # tau=0: prefix length 1; windows [0,1] and [0,1] sorted -> rank 0
        # is the prefix of both.
        assert index.probe((0,)) == [(0, 0), (0, 1)]

    def test_interval_index_is_smaller(self):
        # On a repetitive document, interval postings collapse runs.
        rng = random.Random(4)
        scheme = PartitionScheme(universe_size=6, borders=(3,))
        ranks = [rng.randrange(6) for _ in range(60)]
        interval_index = IntervalIndex(6, 1, scheme)
        window_index = WindowInvertedIndex(6, 1, scheme)
        interval_index.index_document(0, ranks)
        window_index.index_document(0, ranks)
        assert interval_index.num_postings <= window_index.num_postings

    def test_signature_and_posting_counts(self):
        scheme = PartitionScheme.single(3)
        index = WindowInvertedIndex(2, 0, scheme)
        index.index_document(0, [0, 1, 2])
        assert index.num_signatures >= 1
        assert index.num_postings == 2  # one prefix token per window


class TestMergeIntervalsProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        merge_gap=st.integers(0, 20),
    )
    def test_output_disjoint_and_covering(self, seed, merge_gap):
        rng = random.Random(seed)
        intervals = []
        for _ in range(rng.randint(0, 20)):
            doc = rng.randrange(3)
            u = rng.randrange(50)
            intervals.append(WindowInterval(doc, u, u + rng.randrange(10)))
        merged = merge_intervals(intervals, merge_gap)
        # Sorted, disjoint with gap >= threshold between same-doc runs.
        threshold = max(2, merge_gap)
        for left, right in zip(merged, merged[1:]):
            assert (left.doc_id, left.u) <= (right.doc_id, right.u)
            if left.doc_id == right.doc_id:
                assert right.u - left.v >= threshold
        # Coverage: every input window is inside some merged interval.
        covered = {
            (interval.doc_id, start)
            for interval in merged
            for start in range(interval.u, interval.v + 1)
        }
        for interval in intervals:
            for start in range(interval.u, interval.v + 1):
                assert (interval.doc_id, start) in covered
