"""PartitionScheme: class and sub-partition lookup over the rank space.

The token universe, sorted by the global order O (ascending window
frequency), is split by ``k_max - 1`` non-decreasing borders into
classes 1..k_max: class 1 holds the rarest tokens (indexed as single
tokens), class ``k_max`` the most frequent (indexed as k_max-wise
combinations).  Empty classes are allowed (Section 5.2).

With ``m > 1`` (Section 6), every class above 1 is split into ``m``
equi-width *sub-partitions*; token combinations are only generated
within a sub-partition.  Class 1 is never subdivided (single tokens
gain nothing from it).

Tokens admitted after the order was built (query-only tokens, negative
ranks) fall into class 1, consistent with having window frequency zero.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import PartitioningError


@dataclass(frozen=True)
class PartitionScheme:
    """Immutable partitioning of a rank universe.

    Parameters
    ----------
    universe_size:
        Size of the non-negative rank space (the data-token universe).
    borders:
        ``k_max - 1`` non-decreasing rank thresholds.  Class 1 covers
        ranks ``[0, borders[0])``, class ``i`` covers
        ``[borders[i-2], borders[i-1])``, class ``k_max`` covers
        ``[borders[-1], universe_size)``.  An empty tuple means
        ``k_max = 1`` (standard prefix filtering).
    m:
        Number of equi-width sub-partitions per class above 1.
    """

    universe_size: int
    borders: tuple[int, ...] = ()
    m: int = 1

    def __post_init__(self) -> None:
        if self.universe_size < 0:
            raise PartitioningError(
                f"universe_size must be >= 0, got {self.universe_size}"
            )
        if self.m < 1:
            raise PartitioningError(f"m must be >= 1, got {self.m}")
        previous = 0
        for border in self.borders:
            if border < previous or border > self.universe_size:
                raise PartitioningError(
                    f"borders must be non-decreasing within "
                    f"[0, {self.universe_size}]; got {self.borders}"
                )
            previous = border

    def to_dict(self) -> dict:
        """JSON-ready form, as a file stores it."""
        return {"universe_size": self.universe_size, "borders": list(self.borders), "m": self.m}

    @classmethod
    def from_dict(cls, payload: dict) -> "PartitionScheme":
        """Inverse of :meth:`to_dict`, validated as any construction is."""
        return cls(
            universe_size=payload["universe_size"],
            borders=tuple(payload["borders"]),
            m=payload["m"],
        )

    # ------------------------------------------------------------------
    @property
    def k_max(self) -> int:
        """Number of classes (borders + 1)."""
        return len(self.borders) + 1

    @classmethod
    def single(cls, universe_size: int) -> "PartitionScheme":
        """k_max = 1: every token is a 1-wise (single-token) signature."""
        return cls(universe_size=universe_size, borders=())

    @classmethod
    def all_k(cls, universe_size: int, k: int, m: int = 1) -> "PartitionScheme":
        """Every token in class ``k`` (non-partitioned k-wise, Section 7.2).

        Classes 1..k-1 are empty (all borders at rank 0).
        """
        if k < 1:
            raise PartitioningError(f"k must be >= 1, got {k}")
        return cls(universe_size=universe_size, borders=(0,) * (k - 1), m=m)

    # ------------------------------------------------------------------
    def class_of(self, rank: int) -> int:
        """Class (1-based) of a token rank; negative ranks are class 1."""
        if rank < 0:
            return 1
        return bisect_right(self.borders, rank) + 1

    def class_range(self, class_index: int) -> tuple[int, int]:
        """Half-open rank range ``[lo, hi)`` of ``class_index``."""
        if not 1 <= class_index <= self.k_max:
            raise PartitioningError(
                f"class must be in [1, {self.k_max}], got {class_index}"
            )
        lo = self.borders[class_index - 2] if class_index >= 2 else 0
        hi = (
            self.borders[class_index - 1]
            if class_index <= self.k_max - 1
            else self.universe_size
        )
        return lo, hi

    def group_of(self, rank: int) -> tuple[int, int]:
        """``(class, sub_partition)`` of a rank; sub is 0 for class 1.

        Signatures combine tokens only within one group.  For classes
        above 1 the class's rank range is cut into ``m`` equi-width
        sub-partitions; the last sub-partition absorbs the remainder.
        """
        class_index = self.class_of(rank)
        if class_index == 1 or self.m == 1:
            return class_index, 0
        lo, hi = self.class_range(class_index)
        width = hi - lo
        if width <= 0:
            return class_index, 0
        sub = min(self.m - 1, (rank - lo) * self.m // width)
        return class_index, sub

    def group_key(self, rank: int) -> int:
        """Compact integer key for ``group_of(rank)`` (class * m + sub)."""
        class_index, sub = self.group_of(rank)
        return class_index * self.m + sub

    def key_table(self) -> list[int]:
        """Precomputed ``group_key`` for every non-negative rank.

        The scheme is immutable and hashable, so the table is cached
        per scheme instance; hot loops (prefix computation per window
        slide) index it instead of bisecting borders per token.
        Negative ranks are not in the table — they are always class 1,
        key ``m``.
        """
        return _key_table(self)


@lru_cache(maxsize=64)
def _key_table(scheme: PartitionScheme) -> list[int]:
    """One ``searchsorted`` over the group starts: group ``g`` is class
    1's (key ``m``) at 0, else key ``2m + g - 1``."""
    # Imported here: the bulk kernel imports this module.
    from ..signatures.bulk import _group_starts

    starts, _classes = _group_starts(scheme)
    groups = np.searchsorted(
        np.asarray(starts, dtype=np.int64), np.arange(scheme.universe_size), side="right"
    )
    return np.where(groups == 0, scheme.m, groups + (2 * scheme.m - 1)).tolist()
