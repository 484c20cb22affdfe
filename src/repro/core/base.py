"""Shared result and statistics types for all search algorithms.

Every algorithm — pkwise and all baselines — returns the same
:class:`SearchResult`, so tests can assert exact-algorithm agreement and
benchmarks can decompose phase costs uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple

from ..obs.registry import MetricsRegistry


class MatchPair(NamedTuple):
    """One result of local similarity search: ``<W(d, x), W(q, y)>``.

    ``overlap`` is the multiset intersection size ``O(x, y)``; a pair is
    a result iff ``w - overlap <= tau``.
    """

    doc_id: int
    data_start: int
    query_start: int
    overlap: int


#: The typed metric schema behind :class:`SearchStats`: timers carry
#: wall-clock seconds per phase, counters carry the abstract operation
#: counts.  This tuple pair is the single source of truth for merging
#: and for the :class:`~repro.obs.MetricsRegistry` mapping — adding a
#: field to the dataclass without classifying it here fails loudly in
#: ``to_registry``/tests rather than silently dropping it from reports.
STAT_TIMER_FIELDS: tuple[str, ...] = (
    "signature_time",
    "candidate_time",
    "verify_time",
    "routing_fingerprint_time",
)
STAT_COUNTER_FIELDS: tuple[str, ...] = (
    "signature_tokens",
    "signatures_generated",
    "postings_entries",
    "probe_batches",
    "probe_signatures",
    "hash_ops",
    "candidate_windows",
    "verify_carried",
    "num_results",
    "shared_windows",
    "changed_windows",
    "routing_checked_docs",
    "routing_pruned_docs",
)


@dataclass
class SearchStats:
    """Phase decomposition of one query's processing (Section 5.1).

    Wall-clock seconds per phase plus the abstract operation counters
    the cost model weights with c_comb / c_int / c_hash.  Counter
    meanings:

    ``signature_tokens``
        Sum of |s| over generated signatures (Equation 2's unit).
    ``postings_entries``
        Interval (or window) entries fetched from the index during
        candidate generation (Equation 3's unit).
    ``probe_batches``
        ``probe_many`` calls issued — one per prefetched run of changed
        window events (pkwise) or per query window (non-interval).
    ``probe_signatures``
        Signatures resolved through those batches;
        ``probe_signatures / probe_batches`` is the mean batch width,
        the lever behind vectorized-probe throughput.
    ``hash_ops``
        Hash-table operations during verification (Equation 4's unit).
    ``candidate_windows``
        Number of data windows whose similarity was actually checked.
    ``verify_carried``
        (query window, merged interval) verifications that started from
        the state the same query kept for that interval — segment, first
        table, change list, updated first overlap — instead of from the
        rank container; the rest are first touches.  ``hash_ops`` and
        ``candidate_windows`` count the same for both.
    ``routing_checked_docs`` / ``routing_pruned_docs``
        Documents the fingerprint routing tier examined and how many it
        pruned before candidate generation (the ``routing.*`` family;
        zero when ``RoutingPolicy.mode == "off"``).  Both are abstract
        counts — deterministic across serial, fork, and spawn runs.

    The class is a flat-attribute view over the typed metric schema
    (``STAT_TIMER_FIELDS`` / ``STAT_COUNTER_FIELDS``): hot loops add to
    attributes, and :meth:`to_registry` / :meth:`from_registry` convert
    losslessly to :class:`~repro.obs.MetricsRegistry` at reporting and
    worker-serialization boundaries.
    """

    signature_time: float = 0.0
    candidate_time: float = 0.0
    verify_time: float = 0.0
    routing_fingerprint_time: float = 0.0
    signature_tokens: int = 0
    signatures_generated: int = 0
    postings_entries: int = 0
    probe_batches: int = 0
    probe_signatures: int = 0
    hash_ops: int = 0
    candidate_windows: int = 0
    verify_carried: int = 0
    num_results: int = 0
    shared_windows: int = 0
    changed_windows: int = 0
    routing_checked_docs: int = 0
    routing_pruned_docs: int = 0

    def phase_seconds(self) -> dict[str, float]:
        """Per-phase wall-clock breakdown keyed by short phase name."""
        return {
            "routing": self.routing_fingerprint_time,
            "signature": self.signature_time,
            "candidate": self.candidate_time,
            "verify": self.verify_time,
        }

    def abstract_cost(
        self, c_comb: float = 10.0, c_int: float = 2.0, c_hash: float = 1.0
    ) -> float:
        """Weighted operation count (the paper's default weights)."""
        return (
            c_comb * self.signature_tokens
            + c_int * self.postings_entries
            + c_hash * self.hash_ops
        )

    def merge(self, other: "SearchStats") -> None:
        """Accumulate another query's stats into this one (in place)."""
        for name in STAT_TIMER_FIELDS + STAT_COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    # ------------------------------------------------------------------
    # Registry boundary (repro.obs)
    # ------------------------------------------------------------------
    def to_registry(self, registry: MetricsRegistry | None = None) -> MetricsRegistry:
        """Pour these stats into a typed registry (created if omitted)."""
        if registry is None:
            registry = MetricsRegistry()
        for name in STAT_TIMER_FIELDS:
            registry.timer(name).add(getattr(self, name))
        for name in STAT_COUNTER_FIELDS:
            registry.counter(name).inc(getattr(self, name))
        return registry

    @classmethod
    def from_registry(cls, registry: MetricsRegistry) -> "SearchStats":
        """Rebuild stats from a registry (missing metrics read as zero)."""
        stats = cls()
        for name in STAT_TIMER_FIELDS:
            stats.__setattr__(name, registry.timer(name).seconds)
        for name in STAT_COUNTER_FIELDS:
            stats.__setattr__(name, registry.counter(name).value)
        return stats

    def snapshot(self) -> dict:
        """Canonical registry snapshot (what parallel workers ship back)."""
        return self.to_registry().snapshot()


# Every dataclass field must be classified as a timer or a counter;
# checked once at import so schema drift fails the first test that
# touches the module instead of silently dropping a field from merges.
assert {spec.name for spec in fields(SearchStats)} == set(
    STAT_TIMER_FIELDS + STAT_COUNTER_FIELDS
), "SearchStats fields out of sync with STAT_TIMER_FIELDS/STAT_COUNTER_FIELDS"


@dataclass
class SearchResult:
    """Match pairs plus the stats of producing them."""

    pairs: list[MatchPair]
    stats: SearchStats = field(default_factory=SearchStats)

    def sorted_pairs(self) -> list[MatchPair]:
        """Canonical ordering for cross-algorithm comparison."""
        return sorted(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)
