"""Epoch-invalidated LRU result cache for the search service.

Repeated and near-duplicate queries dominate serving workloads
(plagiarism screening re-checks the same suspicious passages over and
over), and an exact searcher is deterministic: the same query tokens
against the same index state always produce the same match pairs.  The
cache exploits exactly that and nothing more:

* Keys are ``(canonical query-token hash, params fingerprint, index
  epoch)``.  The token hash is content-based (BLAKE2b over the packed
  token-id sequence), so two :class:`~repro.corpus.Document` objects
  with the same tokens share an entry regardless of name or identity.
* The index epoch is the searcher's mutation counter
  (:attr:`~repro.core.pkwise.PKWiseSearcher.index_epoch`); any add / remove
  bumps it, which makes every prior entry unreachable — cached and fresh
  results are pair-for-pair identical by construction.  Stale-epoch
  entries are also actively purged on insert so a mutation burst
  cannot pin dead entries in the LRU.
* Values are :class:`ResultEntry` records: the canonically ordered
  pairs as an immutable tuple (a caller mutating its response list
  cannot corrupt the cache) and, once the HTTP front-end has written a
  reply for them, their UTF-8 JSON — a hit is written from the stored
  bytes, so an entry is encoded at most once.

A :class:`~repro.service.ShardRouter` keeps a cache of this class in
front of its shard services' own (its epoch: the shards' last-observed
epochs plus its replica replacements).
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import OrderedDict
from collections.abc import Sequence

#: Cache keys: (query token hash, params fingerprint, index epoch) —
#: the epoch is the searcher's monotone mutation counter.
CacheKey = tuple[str, str, int]


def query_token_hash(tokens: Sequence[int]) -> str:
    """Canonical content hash of a query's token-id sequence.

    Token ids are packed as little-endian signed 64-bit integers
    (query-only tokens have negative ranks upstream, and ids are dense
    ints), so the hash is stable across processes and runs — unlike
    builtin ``hash``, which is salted per process.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(struct.pack(f"<{len(tokens)}q", *tokens))
    return digest.hexdigest()


class ResultEntry:
    """One result: its pair tuple and, once a reply was written, their JSON."""

    __slots__ = ("pairs", "pairs_json")

    def __init__(self, pairs: Sequence) -> None:
        self.pairs = tuple(pairs)
        self.pairs_json: bytes | None = None  # set by repro.service.http


class ResultCache:
    """A thread-safe LRU mapping cache keys to :class:`ResultEntry` records.

    ``capacity <= 0`` disables the cache entirely (every ``get`` misses,
    ``put`` stores nothing) — the configuration the serving benchmark uses
    as its uncached baseline.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[CacheKey, ResultEntry] = OrderedDict()
        self._lock = threading.Lock()
        #: Highest epoch component seen by :meth:`put`.  Stale-entry
        #: purges only run when an insert advances past it, so a burst
        #: of same-epoch inserts costs one O(capacity) scan per epoch
        #: instead of one per insert.
        self._max_epoch: int | None = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, key: CacheKey) -> ResultEntry | None:
        """The cached entry for ``key``, or None; refreshes LRU order."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: CacheKey, pairs: Sequence) -> ResultEntry:
        """Insert ``pairs`` under ``key``, evicting LRU entries beyond capacity.

        Returns the entry made for them (also when caching is disabled);
        the response carries it, so a later hit shares its encoding.
        Entries whose epoch component predates ``key``'s are purged:
        they can never be read again (epochs only grow), so keeping
        them would waste capacity on dead results.  The purge scan only
        runs when ``key`` carries a higher epoch than any insert before
        it — repeated inserts at a steady epoch never rescan.
        """
        entry = ResultEntry(pairs)
        if self.capacity <= 0:
            return entry
        epoch = key[2]
        with self._lock:
            if self._max_epoch is None or epoch > self._max_epoch:
                stale = [
                    entry_key
                    for entry_key in self._entries
                    if entry_key[2] < epoch
                ]
                for entry_key in stale:
                    del self._entries[entry_key]
                    self.invalidations += 1
                self._max_epoch = epoch
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return entry

    def to_registry(self, registry, tier: str) -> None:
        """Report the counters and the entry gauge as ``<tier>.cache_*``."""
        registry.counter(f"{tier}.cache_hits").inc(self.hits)
        registry.counter(f"{tier}.cache_misses").inc(self.misses)
        registry.counter(f"{tier}.cache_evictions").inc(self.evictions)
        registry.counter(f"{tier}.cache_invalidations").inc(self.invalidations)
        registry.gauge(f"{tier}.cache_entries").set(len(self))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"ResultCache(size={len(self)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
