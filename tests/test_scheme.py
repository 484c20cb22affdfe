"""Tests for PartitionScheme (classes, sub-partitions, validation)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitioningError
from repro.partition.equi_width import equi_width_scheme
from repro.partition.scheme import PartitionScheme


class TestClassLookup:
    def test_single_class(self):
        scheme = PartitionScheme.single(100)
        assert scheme.k_max == 1
        assert scheme.class_of(0) == 1
        assert scheme.class_of(99) == 1

    def test_borders(self):
        scheme = PartitionScheme(universe_size=10, borders=(3, 7))
        assert [scheme.class_of(r) for r in range(10)] == [
            1, 1, 1, 2, 2, 2, 2, 3, 3, 3,
        ]

    def test_negative_rank_is_class1(self):
        scheme = PartitionScheme(universe_size=10, borders=(0,))
        assert scheme.class_of(-1) == 1
        assert scheme.class_of(0) == 2  # class 1 empty

    def test_class_range(self):
        scheme = PartitionScheme(universe_size=10, borders=(3, 7))
        assert scheme.class_range(1) == (0, 3)
        assert scheme.class_range(2) == (3, 7)
        assert scheme.class_range(3) == (7, 10)

    def test_class_range_out_of_bounds(self):
        scheme = PartitionScheme(universe_size=10, borders=(5,))
        with pytest.raises(PartitioningError):
            scheme.class_range(0)
        with pytest.raises(PartitioningError):
            scheme.class_range(3)

    def test_empty_classes_allowed(self):
        scheme = PartitionScheme(universe_size=10, borders=(0, 0, 10))
        assert [scheme.class_range(c) for c in (1, 2, 3, 4)] == [
            (0, 0), (0, 0), (0, 10), (10, 10),
        ]


class TestValidation:
    def test_rejects_decreasing_borders(self):
        with pytest.raises(PartitioningError):
            PartitionScheme(universe_size=10, borders=(7, 3))

    def test_rejects_out_of_range_borders(self):
        with pytest.raises(PartitioningError):
            PartitionScheme(universe_size=10, borders=(11,))

    def test_rejects_negative_universe(self):
        with pytest.raises(PartitioningError):
            PartitionScheme(universe_size=-1)

    def test_rejects_bad_m(self):
        with pytest.raises(PartitioningError):
            PartitionScheme(universe_size=10, m=0)


class TestSubPartitions:
    def test_class1_never_subdivided(self):
        scheme = PartitionScheme(universe_size=12, borders=(6,), m=3)
        for rank in range(6):
            assert scheme.group_of(rank) == (1, 0)

    def test_equi_width_subpartitions(self):
        scheme = PartitionScheme(universe_size=12, borders=(6,), m=3)
        # Class 2 covers [6, 12): width 6, three sub-partitions of 2.
        assert scheme.group_of(6) == (2, 0)
        assert scheme.group_of(7) == (2, 0)
        assert scheme.group_of(8) == (2, 1)
        assert scheme.group_of(10) == (2, 2)
        assert scheme.group_of(11) == (2, 2)

    def test_remainder_goes_to_last_subpartition(self):
        scheme = PartitionScheme(universe_size=10, borders=(3,), m=3)
        # Class 2 covers [3, 10): width 7, m=3.
        subs = [scheme.group_of(r)[1] for r in range(3, 10)]
        assert subs == sorted(subs)
        assert max(subs) == 2

    def test_group_key_encodes_class(self):
        scheme = PartitionScheme(universe_size=12, borders=(6,), m=3)
        for rank in range(12):
            key = scheme.group_key(rank)
            class_index, sub = scheme.group_of(rank)
            assert key == class_index * 3 + sub
            assert key // 3 == class_index
        # The key table (one searchsorted over the group starts) holds the
        # same keys; classes 3 and 5 are empty, class 4 narrower than m = 6.
        for m in (1, 2, 6):
            for scheme in (
                PartitionScheme(universe_size=12, borders=(6,), m=m),
                PartitionScheme(universe_size=20, borders=(3, 7, 7, 10, 10), m=m),
                PartitionScheme(universe_size=20, borders=(0, 0, 20), m=m),
            ):
                size = scheme.universe_size
                assert scheme.key_table() == [scheme.group_key(r) for r in range(size)]

    @settings(max_examples=40, deadline=None)
    @given(
        universe=st.integers(1, 200),
        m=st.integers(1, 5),
        data=st.data(),
    )
    def test_groups_are_contiguous(self, universe, m, data):
        num_borders = data.draw(st.integers(0, 3))
        borders = tuple(
            sorted(
                data.draw(st.integers(0, universe)) for _ in range(num_borders)
            )
        )
        scheme = PartitionScheme(universe_size=universe, borders=borders, m=m)
        keys = [scheme.group_key(rank) for rank in range(universe)]
        # Contiguity: each group key occupies one contiguous rank range.
        seen = set()
        previous = None
        for key in keys:
            if key != previous:
                assert key not in seen
                seen.add(key)
            previous = key


class TestFactories:
    def test_equi_width(self):
        scheme = equi_width_scheme(100, 4)
        assert scheme.borders == (25, 50, 75)
        assert scheme.class_range(4) == (75, 100)

    def test_equi_width_k1(self):
        assert equi_width_scheme(100, 1).borders == ()

    def test_equi_width_rejects_bad_k(self):
        with pytest.raises(PartitioningError):
            equi_width_scheme(100, 0)

    def test_all_k(self):
        scheme = PartitionScheme.all_k(50, 3)
        assert scheme.k_max == 3
        assert scheme.class_range(3) == (0, 50)
        assert scheme.class_of(10) == 3

    def test_with_borders_and_m(self):
        scheme = PartitionScheme(universe_size=10, borders=(5,), m=4)
        assert scheme.m == 4 and scheme.k_max == 2
        assert scheme.group_of(4) == (1, 0)
        assert scheme.group_of(9) == (2, 3)
