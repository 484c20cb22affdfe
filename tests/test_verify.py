"""Tests for rolling interval verification (Section 4.3)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IntervalVerifier
from repro.windows import window_overlap


def reference_matches(doc_ranks, query_ranks, query_start, u, v, w, tau, doc_id=0):
    out = []
    query_window = query_ranks[query_start : query_start + w]
    for j in range(u, v + 1):
        overlap = window_overlap(doc_ranks[j : j + w], query_window)
        if w - overlap <= tau:
            out.append((doc_id, j, query_start, overlap))
    return out


class TestVerifyInterval:
    def test_single_window_match(self):
        verifier = IntervalVerifier([1, 2, 3], w=3, tau=0)
        matches = verifier.verify_interval(0, [1, 2, 3], 0, 0)
        assert [tuple(match) for match in matches] == [(0, 0, 0, 3)]

    def test_single_window_miss(self):
        verifier = IntervalVerifier([1, 2, 3], w=3, tau=0)
        assert verifier.verify_interval(0, [4, 5, 6], 0, 0) == []

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_matches_reference_on_random_intervals(self, seed):
        rng = random.Random(seed)
        w = rng.randint(1, 8)
        tau = rng.randint(0, max(0, w - 1))
        doc_ranks = [rng.randrange(6) for _ in range(w + rng.randint(0, 25))]
        query_ranks = [rng.randrange(6) for _ in range(w + rng.randint(0, 10))]
        verifier = IntervalVerifier(query_ranks, w, tau)
        query_start = rng.randint(0, len(query_ranks) - w)
        verifier.advance_to(query_start)
        max_start = len(doc_ranks) - w
        u = rng.randint(0, max_start)
        v = rng.randint(u, max_start)
        got = [tuple(match) for match in verifier.verify_interval(0, doc_ranks, u, v)]
        assert got == reference_matches(
            doc_ranks, query_ranks, query_start, u, v, w, tau
        )

    def test_early_termination_skips_tail(self):
        # Query shares nothing with the document: the first window
        # misses by delta = w - tau; the verifier should abandon the
        # interval after far fewer than v - u + 1 window checks.
        w, tau = 10, 1
        doc_ranks = list(range(100, 200))
        query_ranks = list(range(0, 10))
        verifier = IntervalVerifier(query_ranks, w, tau)
        verifier.verify_interval(0, doc_ranks, 0, 89)
        assert verifier.candidate_windows < 30  # 90 windows, but skipped

    def test_advance_to_rolls_query(self):
        query_ranks = [1, 2, 3, 4, 5]
        verifier = IntervalVerifier(query_ranks, w=3, tau=0)
        verifier.advance_to(2)
        matches = verifier.verify_interval(0, [3, 4, 5], 0, 0)
        assert len(matches) == 1
        assert matches[0].query_start == 2

    def test_advance_backwards_raises(self):
        verifier = IntervalVerifier([1, 2, 3, 4], w=2, tau=0)
        verifier.advance_to(2)
        with pytest.raises(ValueError):
            verifier.advance_to(1)

    def test_advance_to_last_window_succeeds(self):
        # len=10, w=4: window starts 0..6; advancing exactly to the
        # last one must work.
        verifier = IntervalVerifier(list(range(10)), w=4, tau=0)
        verifier.advance_to(6)
        assert verifier.query_start == 6

    def test_advance_past_last_window_raises_repro_error(self):
        # Regression: this used to surface as a bare IndexError from
        # ``ranks[start + w]`` deep inside the slide loop.
        from repro.errors import ReproError

        verifier = IntervalVerifier(list(range(10)), w=4, tau=0)
        with pytest.raises(ReproError) as excinfo:
            verifier.advance_to(7)
        message = str(excinfo.value)
        assert "7" in message  # the offending target window
        assert "6" in message  # the last valid window start
        # The verifier state is untouched by the rejected advance.
        assert verifier.query_start == 0
        verifier.advance_to(6)

    def test_advance_far_past_end_raises_not_index_error(self):
        from repro.errors import ReproError

        verifier = IntervalVerifier(list(range(8)), w=3, tau=1)
        with pytest.raises(ReproError):
            verifier.advance_to(100)

    def test_hash_ops_grow_with_work(self):
        verifier = IntervalVerifier([1, 2, 3, 4, 5], w=3, tau=2)
        before = verifier.hash_ops
        verifier.verify_interval(0, [1, 2, 3, 4, 5], 0, 2)
        assert verifier.hash_ops > before

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_sequential_query_windows(self, seed):
        # Full protocol: advance through query windows in order, verify
        # a fresh interval each time; every result must match reference.
        rng = random.Random(seed)
        w = rng.randint(2, 6)
        tau = rng.randint(0, w - 1)
        doc_ranks = [rng.randrange(4) for _ in range(w + rng.randint(0, 15))]
        query_ranks = [rng.randrange(4) for _ in range(w + rng.randint(0, 15))]
        verifier = IntervalVerifier(query_ranks, w, tau)
        max_doc_start = len(doc_ranks) - w
        for query_start in range(len(query_ranks) - w + 1):
            verifier.advance_to(query_start)
            got = [
                tuple(m)
                for m in verifier.verify_interval(0, doc_ranks, 0, max_doc_start)
            ]
            assert got == reference_matches(
                doc_ranks, query_ranks, query_start, 0, max_doc_start, w, tau
            )
