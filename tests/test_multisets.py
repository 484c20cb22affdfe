"""Property tests for SortedMultiset.

A hypothesis suite drives the structure against a naive sorted-list
model.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.windows import SortedMultiset

STRUCTURES = [SortedMultiset]

# Operations: ("add", v) or ("discard", v).
operations = st.lists(
    st.tuples(st.sampled_from(["add", "discard"]), st.integers(-20, 20)),
    max_size=120,
)


@pytest.mark.parametrize("cls", STRUCTURES)
class TestAgainstModel:
    @settings(max_examples=60, deadline=None)
    @given(ops=operations)
    def test_matches_sorted_list_model(self, cls, ops):
        structure = cls()
        model: list[int] = []
        for op, value in ops:
            if op == "add":
                structure.add(value)
                model.append(value)
                model.sort()
            else:
                removed = structure.discard(value)
                assert removed == (value in model)
                if removed:
                    model.remove(value)
            assert len(structure) == len(model)
            assert structure.as_list() == model

    @settings(max_examples=40, deadline=None)
    @given(items=st.lists(st.integers(-50, 50), max_size=80))
    def test_positional_access(self, cls, items):
        structure = cls(items)
        expected = sorted(items)
        for index in range(len(expected)):
            assert structure[index] == expected[index]
        assert structure.prefix(5) == expected[:5]
        assert structure.prefix(1000) == expected

    @settings(max_examples=40, deadline=None)
    @given(items=st.lists(st.integers(-10, 10), max_size=60), probe=st.integers(-12, 12))
    def test_contains(self, cls, items, probe):
        assert (probe in cls(items)) == (probe in items)


@pytest.mark.parametrize("cls", STRUCTURES)
class TestEdgeCases:
    def test_remove_missing_raises(self, cls):
        structure = cls([1, 2])
        with pytest.raises(KeyError):
            structure.remove(3)

    def test_remove_one_of_duplicates(self, cls):
        structure = cls([5, 5, 5])
        structure.remove(5)
        assert structure.as_list() == [5, 5]

    def test_empty(self, cls):
        structure = cls()
        assert len(structure) == 0
        assert structure.as_list() == []
        assert not structure.discard(1)

    def test_iteration_sorted(self, cls):
        structure = cls([3, 1, 2, 1])
        assert list(structure) == [1, 1, 2, 3]


class TestSortedMultisetSpecifics:
    def test_raw_is_internal(self):
        multiset = SortedMultiset([2, 1])
        assert multiset.raw == [1, 2]

    def test_getitem_slice(self):
        multiset = SortedMultiset([4, 3, 2, 1])
        assert multiset[1:3] == [2, 3]

    def test_equality(self):
        assert SortedMultiset([1, 2]) == SortedMultiset([2, 1])
        assert SortedMultiset([1]) != SortedMultiset([2])

    def test_repr_preview(self):
        assert "len=12" in repr(SortedMultiset(range(12)))

