"""The query-processing cost model (Section 5.1, Equations 2-4).

The model weighs three abstract operation counts:

* signature generation — ``c_comb`` per constituent token of each
  generated signature (Equation 2);
* candidate generation — ``c_int`` per interval entry fetched from a
  postings list (Equation 3);
* verification — ``c_hash`` per hash-table operation (Equation 4).

The counts are *measured*, not estimated: evaluating a partitioning
builds the index and processes the (sample) workload with instrumented
counters, exactly as the paper's Section 5.2 prescribes ("we need to
build index for D with respect to P and then process the queries in Q to
sum up the cost").  Using abstract counts instead of wall time makes the
greedy partitioner deterministic and machine-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..corpus import Document, DocumentCollection
from ..ordering import GlobalOrder
from ..params import SearchParams
from .scheme import PartitionScheme


@dataclass(frozen=True)
class CostWeights:
    """Operation weights; defaults are the paper's (Section 7.1).

    The paper's constants (10, 2, 1) encode C++ op-cost ratios.  On a
    different substrate the ratios differ — use :func:`calibrated_weights`
    to measure them instead of guessing.
    """

    c_comb: float = 10.0
    c_int: float = 2.0
    c_hash: float = 1.0


def workload_cost(
    data: DocumentCollection,
    queries: list[Document],
    params: SearchParams,
    scheme: PartitionScheme,
    order: GlobalOrder,
    weights: CostWeights = CostWeights(),
) -> float:
    """C_workload(Q): summed abstract query-processing cost.

    Builds a pkwise index under ``scheme`` and processes every query,
    returning the weighted operation total.  Index build cost is *not*
    included (the paper optimizes query processing; indexing is offline).
    """
    # Imported here: core depends on partition.scheme, so the reverse
    # import lives inside the function to keep the module graph acyclic.
    from ..core.pkwise import PKWiseSearcher
    from ..eval.harness import serial_run

    searcher = PKWiseSearcher(data, params, scheme=scheme, order=order)
    totals = serial_run(searcher, queries).stats
    return totals.abstract_cost(weights.c_comb, weights.c_int, weights.c_hash)


def calibrated_weights(
    data: DocumentCollection,
    queries: list[Document],
    params: SearchParams,
    order: GlobalOrder,
    scheme: PartitionScheme | None = None,
) -> CostWeights:
    """Measure per-operation costs on this machine/runtime.

    Runs pkwise once over ``queries`` with ``scheme`` (default scheme if
    omitted) and divides each phase's wall time by its operation count,
    normalizing so ``c_hash = 1``.  Feeding the result to
    :class:`~repro.partition.GreedyPartitioner` makes the optimizer
    minimize something proportional to actual runtime on the current
    substrate — on CPython the combination/hash cost ratio is far from
    the paper's C++ constants, and the fixed constants can make the
    greedy search prefer schemes that lose on wall clock.
    """
    from ..core.pkwise import PKWiseSearcher, order_and_scheme
    from ..eval.harness import serial_run

    if scheme is None:
        _, scheme = order_and_scheme(data, params, order)
    searcher = PKWiseSearcher(data, params, scheme=scheme, order=order)
    totals = serial_run(searcher, queries).stats
    c_comb = totals.signature_time / max(1, totals.signature_tokens)
    c_int = totals.candidate_time / max(1, totals.postings_entries)
    c_hash = totals.verify_time / max(1, totals.hash_ops)
    if c_hash <= 0:
        return CostWeights()
    return CostWeights(
        c_comb=max(1e-6, c_comb / c_hash),
        c_int=max(1e-6, c_int / c_hash),
        c_hash=1.0,
    )
