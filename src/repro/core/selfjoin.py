"""All-pairs local similarity self-join within one collection.

The paper frames local similarity search as a join of two window
relations (Section 2.2); the common production variant is the
*self-join*: find every replicated window pair inside one corpus
(intra-corpus dedup, mirror detection).  This module runs each document
as a query against the collection's pkwise index, suppressing the
trivial self-matches every window has with itself and, optionally, the
near-diagonal self-overlaps within one document.
"""

from __future__ import annotations

from typing import NamedTuple

from ..corpus import DocumentCollection
from ..params import SearchParams
from .pkwise import PKWiseSearcher


class SelfJoinPair(NamedTuple):
    """A replicated window pair inside one collection.

    Canonical orientation: ``(left_doc, left_start) < (right_doc,
    right_start)``, so each unordered pair is reported once.
    """

    left_doc: int
    left_start: int
    right_doc: int
    right_start: int
    overlap: int


def document_join_pairs(
    searcher: PKWiseSearcher,
    document,
    exclude_same_document_within: int | None = None,
) -> list[SelfJoinPair]:
    """One document's self-join contribution (canonical orientation).

    Runs ``document`` as a query against ``searcher`` and keeps only the
    pairs whose left side sorts strictly below the right side, so
    summing this over any partition of the collection yields each
    unordered pair exactly once — the unit of work for both the serial
    join and the parallel document-pair blocks.
    """
    results: list[SelfJoinPair] = []
    for pair in searcher.search(document).pairs:
        left = (pair.doc_id, pair.data_start)
        right = (document.doc_id, pair.query_start)
        if left >= right:
            continue  # identity pair, or the mirror orientation
        if (
            exclude_same_document_within is not None
            and pair.doc_id == document.doc_id
            and abs(pair.data_start - pair.query_start)
            <= exclude_same_document_within
        ):
            continue
        results.append(
            SelfJoinPair(left[0], left[1], right[0], right[1], pair.overlap)
        )
    return results


def local_similarity_self_join(
    data: DocumentCollection,
    params: SearchParams,
    exclude_same_document_within: int | None = None,
    jobs: int = 1,
    checkpoint=None,
    resume: bool = False,
) -> list[SelfJoinPair]:
    """All window pairs of ``data`` with ``w - O(x, y) <= tau``.

    Each unordered pair is reported once (canonical orientation); the
    identity pair of every window with itself is suppressed.

    ``exclude_same_document_within`` additionally drops same-document
    pairs whose starts differ by at most the given number of tokens —
    overlapping windows of one document trivially share most tokens, and
    dedup pipelines rarely want them.  Pass ``params.w`` to drop exactly
    the self-overlapping pairs; ``None`` keeps everything.

    The index is built in-process; ``jobs`` distributes the join's
    probe documents over that many worker processes (``0`` or ``None`` =
    one per CPU; :class:`~repro.parallel.ParallelExecutor` runs
    ``jobs=1`` in-process); the output is identical to the serial join.
    ``checkpoint`` names a file that accumulates completed document
    blocks so a long join interrupted by a crash or Ctrl-C can be
    re-invoked with ``resume=True`` and finish from where it stopped (a
    checkpoint runs the supervised dispatcher even at ``jobs=1``;
    ``resume=True`` without one raises
    :class:`~repro.errors.ConfigurationError`).
    """
    from ..parallel import ParallelExecutor

    return ParallelExecutor(jobs).self_join(
        data,
        params,
        exclude_same_document_within=exclude_same_document_within,
        checkpoint=checkpoint,
        resume=resume,
    )
