"""Pool-worker entry points for :class:`~repro.parallel.ParallelExecutor`.

Everything here runs inside worker processes of the executor's one
supervised pool (a ``ProcessPoolExecutor``, rebuilt after a worker
death; both task functions below run under it).  The shared read-only
searcher lives in the module global ``_STATE``: under the ``fork`` start
method the parent sets it before creating the pool and children inherit
it for free; under ``spawn`` a pool initializer repopulates it in each
child — from a :mod:`repro.persistence` file for a ``PKWiseSearcher``,
from a pickle for any other engine.  The initializers also re-install
the parent's active :class:`~repro.faults.FaultPlan`, so injected faults
fire identically under every start method.

Task functions take one picklable tuple whose first element is the
dispatch id and return ``(chunk_index, pid, elapsed_seconds, ...)`` so
the parent can attribute busy time to workers.  Every task function
passes through the :mod:`repro.faults` injection point
``parallel.worker.chunk`` once per chunk (``kind`` = ``search`` /
``selfjoin``); ``parallel.worker.query`` fires once per workload query
and ``parallel.worker.document`` once per self-join probe document — all
no-ops unless a fault plan is active.
"""

from __future__ import annotations

import os
import time

from .. import faults
from ..core.base import SearchStats
from ..core.selfjoin import document_join_pairs

#: Read-only shared state for the current pool generation.
_STATE = None


def set_forked_state(state) -> None:
    """Parent-side: expose ``state`` to children of the next ``fork``."""
    global _STATE
    _STATE = state


def clear_forked_state() -> None:
    """Parent-side: drop the shared reference once the pool is gone."""
    global _STATE
    _STATE = None


def init_state(payload, fault_plan=None) -> None:
    """Pool initializer (spawn fallback): install a pickled searcher."""
    global _STATE
    _STATE = payload
    if fault_plan is not None:
        faults.install_plan(fault_plan)


def init_searcher_file(path: str, fault_plan=None) -> None:
    """Pool initializer (spawn fallback): map a persisted searcher.

    The snapshot's array columns are memory-mapped instead of copied —
    every pool worker maps the same file, so the index pages are
    shared through the OS page cache rather than duplicated per process.

    The fault plan (when given) is installed *after* the searcher loads,
    so persistence faults target real save/load paths, not this
    transport detail.
    """
    from ..persistence import load_bundle

    global _STATE
    _STATE = load_bundle(path, mmap=True).searcher
    if fault_plan is not None:
        faults.install_plan(fault_plan)


# ----------------------------------------------------------------------
# Task functions
# ----------------------------------------------------------------------
def search_chunk(task):
    """Run one chunk of queries against the shared searcher.

    ``task`` is ``(chunk_index, [(position, query), ...])`` where
    ``position`` is the query's index in the original workload; results
    come back per query so the parent can restore workload order.

    Stats travel as a :meth:`~repro.core.base.SearchStats.snapshot` registry
    dict, not a live object: the snapshot is the cross-process wire
    format of :mod:`repro.obs`, and the parent merges the chunks'
    registries deterministically (sorted keys, pure sums for counters),
    so the merged counters equal the serial run's field for field.
    """
    chunk_index, numbered_queries = task
    faults.inject(
        "parallel.worker.chunk", chunk_index=chunk_index, kind="search"
    )
    searcher = _STATE
    stats = SearchStats()
    rows = []
    started = time.perf_counter()
    for position, query in numbered_queries:
        faults.inject(
            "parallel.worker.query", position=position, doc_id=query.doc_id
        )
        result = searcher.search(query)
        stats.merge(result.stats)
        rows.append((position, query.doc_id, result.pairs))
    elapsed = time.perf_counter() - started
    return chunk_index, os.getpid(), elapsed, stats.snapshot(), rows


def selfjoin_chunk(task):
    """Self-join pairs for one block of probe documents.

    ``task`` is ``(chunk_index, documents, exclude_same_document_within)``;
    the shared state is the searcher over the full collection.  Each
    block covers the document-pair rectangle (block x whole collection);
    the canonical-orientation filter inside ``document_join_pairs``
    keeps exactly one copy of every unordered pair across blocks.

    Returns the probed ``doc_ids`` alongside the pairs: a probe document
    may legitimately contribute zero pairs, and the executor's
    checkpoint needs to know it was *covered*, not merely unproductive.
    """
    chunk_index, documents, exclude_same_document_within = task
    faults.inject(
        "parallel.worker.chunk", chunk_index=chunk_index, kind="selfjoin"
    )
    searcher = _STATE
    pairs = []
    doc_ids = []
    started = time.perf_counter()
    for document in documents:
        faults.inject("parallel.worker.document", doc_id=document.doc_id)
        doc_ids.append(document.doc_id)
        pairs.extend(
            document_join_pairs(searcher, document, exclude_same_document_within)
        )
    elapsed = time.perf_counter() - started
    return chunk_index, os.getpid(), elapsed, doc_ids, pairs
