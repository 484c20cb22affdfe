"""Tests for the window slider and the one-shot window overlap."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.windows.rolling import window_overlap
from repro.windows.slider import WindowSlider


class TestWindowOverlap:
    def test_paper_example_multiset_semantics(self):
        # {A,A,A,B} ∩ {A,A,B,B} = {A,A,B} (Section 2.1).
        assert window_overlap([0, 0, 0, 1], [0, 0, 1, 1]) == 3

    def test_disjoint(self):
        assert window_overlap([1, 2], [3, 4]) == 0

    def test_identical(self):
        assert window_overlap([1, 1, 2], [1, 1, 2]) == 3

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.lists(st.integers(0, 6), min_size=0, max_size=20),
        y=st.lists(st.integers(0, 6), min_size=0, max_size=20),
    )
    def test_symmetric_and_bounded(self, x, y):
        overlap = window_overlap(x, y)
        assert overlap == window_overlap(y, x)
        assert 0 <= overlap <= min(len(x), len(y))


class TestWindowSlider:
    def test_windows_enumerated(self):
        slider = WindowSlider([1, 2, 3, 4, 5], 3)
        contents = []
        for start, _out, _in in slider.slides():
            contents.append((start, list(slider.window)))
        assert contents == [
            (0, [1, 2, 3]),
            (1, [2, 3, 4]),
            (2, [3, 4, 5]),
        ]

    def test_multiset_maintained_with_duplicates(self):
        slider = WindowSlider([1, 1, 2, 1, 1], 3)
        windows = [list(slider.window) for _ in slider.slides()]
        assert windows == [[1, 1, 2], [1, 1, 2], [1, 1, 2]]

    def test_short_sequence(self):
        slider = WindowSlider([1, 2], 5)
        assert slider.num_windows == 0
        assert list(slider.slides()) == []

    def test_exact_length(self):
        slider = WindowSlider([4, 2, 7], 3)
        assert slider.num_windows == 1
        slides = list(slider.slides())
        assert slides == [(0, None, None)]

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            WindowSlider([1], 0)

    @settings(max_examples=50, deadline=None)
    @given(
        ranks=st.lists(st.integers(0, 9), min_size=1, max_size=40),
        w=st.integers(1, 12),
    )
    def test_matches_fresh_sort(self, ranks, w):
        slider = WindowSlider(ranks, w)
        for start, _out, _in in slider.slides():
            assert list(slider.window) == sorted(ranks[start : start + w])

