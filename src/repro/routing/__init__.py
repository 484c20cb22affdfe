"""Document-fingerprint routing tier (pre-filter in front of exact search).

Window-level indexing bounds per-query cost but still touches every
data document.  This package adds a *routing tier*: per-block 512-bit
OR-fingerprints (a saturating simhash over token ids), built as flat
numpy columns from a tier's rank column at its first routed query in
each process, and never stored.  At
query time the tier vector-computes missing bits (popcount over AND-NOT
of packed ``uint64`` lanes — equivalently the asymmetric half of the
XOR Hamming distance) between the query's window fingerprints and every
document's block covers, and prunes documents that *provably* cannot
contain a qualifying window under ``(w, tau)``.  The exact engine then
runs only over the survivors.

Routing is a mode — ``"off"`` or ``"exact"`` — and ``exact`` uses a
conservative budget derived from ``tau`` and the query stride (see
:func:`~repro.routing.fingerprints.missing_bit_budget`): recall is exactly 1.0
by construction. There is no lossy mode.

The public surface is :class:`RoutingPolicy` (one mode, carried on
:class:`~repro.params.SearchParams`) and :class:`FingerprintTier` (one
tier's covers, a function of its rank column and ``w``).
"""

from .fingerprints import FingerprintTier
from .policy import ROUTING_MODES, RoutingPolicy

__all__ = ["RoutingPolicy", "ROUTING_MODES", "FingerprintTier"]
