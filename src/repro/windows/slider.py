"""WindowSlider: walk a document's windows maintaining a sorted view.

Used by the interval-sharing index builder and query processor
(Section 4): for each slide from ``W(d, i)`` to ``W(d, i + 1)`` exactly
one token leaves (``d[i]``) and one enters (``d[i + w]``), so the sorted
window is maintained incrementally instead of re-sorted per window.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Iterator, Sequence

from ..errors import ConfigurationError


class WindowSlider:
    """Iterates the windows of a rank sequence.

    Parameters
    ----------
    ranks:
        The document as a sequence of token ranks (original order).
    w:
        Window size.

    Attributes
    ----------
    window:
        The ranks of the *current* window as a plain sorted list (the
        paper's Section 4.1 suggests a binary search tree; for
        window-sized collections a list kept by ``bisect`` is faster in
        CPython); valid between iterations of :meth:`slides`.  Read it,
        slice it — do not write to it.
    start:
        Start position of the current window.
    """

    def __init__(self, ranks: Sequence[int], w: int) -> None:
        if w < 1:
            raise ConfigurationError(f"window size must be >= 1, got {w}")
        self.ranks = ranks
        self.w = w
        self.start = 0
        self.window: list[int] = sorted(ranks[:w]) if len(ranks) >= w else []

    @property
    def num_windows(self) -> int:
        """Number of windows in the sequence (0 if shorter than w)."""
        return max(0, len(self.ranks) - self.w + 1)

    def slides(self) -> Iterator[tuple[int, int | None, int | None]]:
        """Yield ``(start, outgoing, incoming)`` for every window.

        The first yield is ``(0, None, None)`` with the window already
        holding ``W(d, 0)``; each subsequent yield reports the rank that
        left and the rank that entered, after the window was updated.
        """
        if self.num_windows == 0:
            return
        self.start = 0
        yield (0, None, None)
        ranks = self.ranks
        w = self.w
        window = self.window
        for start in range(1, self.num_windows):
            outgoing = ranks[start - 1]
            incoming = ranks[start + w - 1]
            if outgoing != incoming:
                del window[bisect_left(window, outgoing)]
                insort(window, incoming)
            self.start = start
            yield (start, outgoing, incoming)
