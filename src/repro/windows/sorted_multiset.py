"""A sorted multiset of integers backed by a plain list + bisect.

For window-sized collections (w <= a few hundred) the memmove cost of
list insertion is far cheaper in CPython than pointer-chasing through a
balanced tree, so this is the window representation (the paper's
Section 4.1 suggests a binary search tree).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Iterable, Iterator


class SortedMultiset:
    """Sorted multiset with positional access.

    Supports duplicates.  ``add`` and ``remove`` are O(n) worst-case
    (list shifting) but with a tiny constant; ``__contains__`` is
    O(log n); iteration yields ascending order.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[int] = ()) -> None:
        self._items: list[int] = sorted(items)

    def add(self, value: int) -> None:
        """Insert one occurrence of ``value``."""
        insort(self._items, value)

    def remove(self, value: int) -> None:
        """Remove one occurrence of ``value``; KeyError if absent."""
        index = bisect_left(self._items, value)
        if index >= len(self._items) or self._items[index] != value:
            raise KeyError(value)
        del self._items[index]

    def discard(self, value: int) -> bool:
        """Remove one occurrence if present; returns whether removed."""
        index = bisect_left(self._items, value)
        if index < len(self._items) and self._items[index] == value:
            del self._items[index]
            return True
        return False

    def __contains__(self, value: int) -> bool:
        index = bisect_left(self._items, value)
        return index < len(self._items) and self._items[index] == value

    def __getitem__(self, index: int | slice) -> int | list[int]:
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[int]:
        return iter(self._items)

    def as_list(self) -> list[int]:
        """A copy of the contents in ascending order."""
        return list(self._items)

    @property
    def raw(self) -> list[int]:
        """The internal sorted list — read-only by convention.

        Exposed so hot loops (prefix computation per slide) can scan
        without copying; callers must not mutate it.
        """
        return self._items

    def prefix(self, length: int) -> list[int]:
        """The first ``length`` (smallest) elements."""
        return self._items[:length]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SortedMultiset):
            return self._items == other._items
        return NotImplemented

    def __repr__(self) -> str:
        preview = ", ".join(map(str, self._items[:8]))
        suffix = ", ..." if len(self._items) > 8 else ""
        return f"SortedMultiset([{preview}{suffix}], len={len(self)})"
