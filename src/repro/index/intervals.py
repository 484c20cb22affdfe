"""Window intervals and interval merging (Sections 4.1-4.3).

A window interval ``d[u, v]`` denotes all windows ``W(d, u) ..
W(d, v)`` of document ``d`` (inclusive, 0-based starts).  Candidate
generation produces multisets of intervals which are merged before
verification; merging also coalesces *nearby* intervals whose gap is
under ``w / 2``, because rolling verification across the gap is cheaper
than re-filling the hash table (Section 4.3's 4w + 4(...) vs 2w + 4(...)
operation count).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

import numpy as np


class WindowInterval(NamedTuple):
    """Maximal run of windows of one document containing a signature."""

    doc_id: int
    u: int
    v: int

    def __str__(self) -> str:
        return f"d{self.doc_id}[{self.u},{self.v}]"


class ProbeBatch:
    """Flat-array result of one batched index probe (``probe_many``).

    Candidate intervals for a whole batch of signatures come back as
    four parallel numpy columns instead of per-hit Python objects:
    ``docs``/``us``/``vs`` are the interval fields and ``signs`` carries
    the per-hit candidate-counter delta (+1 for a signature that just
    opened on the query side, -1 for one that closed).  ``sig_counts``
    has one entry per *probed signature* — how many hits that signature
    contributed (0 for a miss) — which is what lets a caller batch
    several window events into one probe and slice the hit columns back
    apart per event (``np.cumsum(sig_counts)`` gives the boundaries).
    ``probed`` is the number of signatures the batch resolved — what
    the ``probe_signatures`` counter accumulates; ``entries`` (the
    column length) is what ``postings_entries`` accumulates, exactly as
    the scalar probe loop did.

    The layout is engine-agnostic: the dict :class:`IntervalIndex`
    concatenates its postings lists into it, the compact index gathers
    it straight out of its flat columns, and the window-level inverted
    index reuses it with ``us == vs`` (every posting is a single
    window).
    """

    __slots__ = ("docs", "us", "vs", "signs", "sig_counts", "probed")

    def __init__(
        self,
        docs: np.ndarray,
        us: np.ndarray,
        vs: np.ndarray,
        signs: np.ndarray,
        sig_counts: np.ndarray,
        probed: int,
    ) -> None:
        if not (len(docs) == len(us) == len(vs) == len(signs)):
            raise ValueError("probe batch columns differ in length")
        if len(sig_counts) != probed:
            raise ValueError(
                f"sig_counts has {len(sig_counts)} entries for "
                f"{probed} probed signatures"
            )
        self.docs = docs
        self.us = us
        self.vs = vs
        self.signs = signs
        self.sig_counts = sig_counts
        self.probed = probed

    @classmethod
    def empty(cls, probed: int = 0) -> "ProbeBatch":
        """A batch with no candidate entries (all signatures missed)."""
        column = np.empty(0, dtype=np.int64)
        return cls(
            column, column, column, np.empty(0, dtype=np.int8),
            np.zeros(probed, dtype=np.int64), probed,
        )

    @classmethod
    def from_rows(
        cls,
        docs: list[int],
        us: list[int],
        vs: list[int],
        signs: list[int],
        sig_counts: list[int],
    ) -> "ProbeBatch":
        """Build the columns from plain Python lists (dict-index path)."""
        return cls(
            np.asarray(docs, dtype=np.int64),
            np.asarray(us, dtype=np.int64),
            np.asarray(vs, dtype=np.int64),
            np.asarray(signs, dtype=np.int8),
            np.asarray(sig_counts, dtype=np.int64),
            len(sig_counts),
        )

    @property
    def entries(self) -> int:
        """Number of candidate interval entries in the batch."""
        return len(self.docs)

    def __len__(self) -> int:
        return len(self.docs)

    def entry_bounds(self) -> np.ndarray:
        """Per-signature hit boundaries: ``bounds[i]:bounds[i+1]``.

        Length ``probed + 1``; slicing the hit columns with consecutive
        bounds recovers each probed signature's postings run, and a
        caller that probed several events' signatures in one batch can
        slice per event by keeping its signature offsets.
        """
        bounds = np.zeros(self.probed + 1, dtype=np.int64)
        np.cumsum(self.sig_counts, out=bounds[1:])
        return bounds

    def _kept(self, keep: np.ndarray) -> "ProbeBatch":
        """The entries flagged in ``keep``; ``self`` when that is all."""
        if keep.all():
            return self
        owner = np.repeat(
            np.arange(self.probed, dtype=np.int64), self.sig_counts
        )
        sig_counts = np.bincount(owner[keep], minlength=self.probed).astype(
            np.int64
        )
        return ProbeBatch(
            self.docs[keep], self.us[keep], self.vs[keep],
            self.signs[keep], sig_counts, self.probed,
        )

    def without_docs(self, removed) -> "ProbeBatch":
        """The batch minus entries of tombstoned documents (vectorized).

        ``removed`` is any iterable of doc ids; the filter applies to
        opened and closed entries alike, so the candidate counter a
        filtered batch feeds stays internally consistent, and
        ``sig_counts`` is re-derived so per-signature slicing keeps
        working.  Returns ``self`` unchanged when nothing matches.
        """
        if not len(self.docs):
            return self
        removed_column = np.fromiter(removed, dtype=np.int64)
        if not len(removed_column):
            return self
        return self._kept(~np.isin(self.docs, removed_column))

    def where_docs(self, allowed: np.ndarray) -> "ProbeBatch":
        """The batch restricted to documents flagged in a boolean mask.

        ``allowed`` is indexed by doc id (the routing tier's survivor
        mask); entries of flagged-off documents are dropped, with
        ``sig_counts`` re-derived exactly as in :meth:`without_docs` so
        per-signature slicing keeps working.  Doc ids at or beyond the
        mask's length are *kept* — a document the tier never
        fingerprinted must not be pruned — so an empty mask keeps
        everything.  Returns ``self`` unchanged when every entry
        survives.
        """
        if not len(self.docs) or not len(allowed):
            return self
        return self._kept(
            (self.docs >= len(allowed))
            | allowed[np.minimum(self.docs, len(allowed) - 1)]
        )

    def __repr__(self) -> str:
        return f"ProbeBatch(probed={self.probed}, entries={self.entries})"


def merge_intervals(
    intervals: Iterable[WindowInterval], merge_gap: int = 0
) -> list[WindowInterval]:
    """Coalesce overlapping (and nearby) intervals per document.

    Two consecutive intervals ``d[u1, v1]`` and ``d[u2, v2]`` (``u2 >
    v1``) are merged when ``u2 - v1 < merge_gap``; Section 4.3 shows
    ``merge_gap = w // 2`` balances hash-table refill cost against
    rolling through non-candidate windows.  Regardless of ``merge_gap``,
    overlapping and touching intervals (``u2 <= v1 + 1``) always merge.

    Returns intervals sorted by (doc_id, u).
    """
    ordered = sorted(intervals)
    threshold = max(2, merge_gap)
    merged: list[WindowInterval] = []
    for interval in ordered:
        if merged:
            last = merged[-1]
            if interval.doc_id == last.doc_id and interval.u - last.v < threshold:
                if interval.v > last.v:
                    merged[-1] = WindowInterval(last.doc_id, last.u, interval.v)
                continue
        merged.append(interval)
    return merged
