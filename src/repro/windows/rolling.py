"""One-shot multiset overlap between two windows.

``window_overlap`` computes O(x, y) from scratch.  The non-interval
pkwise variant and the baselines verify with it, and the tests use it
as the reference for the rolling verifier
(:class:`~repro.core.verify.IntervalVerifier`, the one implementation
of Section 4.3's O(1)-per-slide update — incremental along the data
axis, where it rolls a table across an interval, and along the query
axis, where it updates each live interval's first overlap per query
slide instead of recomputing it).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence


def window_overlap(x: Sequence[int], y: Sequence[int]) -> int:
    """Multiset intersection size O(x, y) = sum_t min(mul(t,x), mul(t,y))."""
    counts_x = Counter(x)
    counts_y = Counter(y)
    if len(counts_x) > len(counts_y):
        counts_x, counts_y = counts_y, counts_x
    return sum(
        min(count, counts_y[token]) for token, count in counts_x.items() if token in counts_y
    )
