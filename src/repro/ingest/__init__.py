"""repro.ingest: LSM-style streaming ingestion.

The write path of the library.  Writes land in a memtable
(:mod:`~repro.ingest.memtable`), which appends their rank lists and
indexes each burst of them in one array pass when a query or a seal
needs it; queries fan out over
memtable + frozen compact segments with exact merged results
(:mod:`~repro.ingest.tiered`, :mod:`~repro.ingest.searcher`), and a
background compactor folds sealed memtables and tombstones into new
compact segments behind a persisted manifest
(:mod:`~repro.ingest.store`, :mod:`~repro.ingest.manifest`), committing
each new tier list under the write side of the store's own
readers–writer lock — queries hold the read side — so serving never
stops and never reads half a change.  A write-ahead token log
(:mod:`~repro.ingest.wal`) makes acknowledged mutations crash-safe.

Most callers never touch this package directly: ``Index.add`` /
``Index.remove`` / ``Index.flush`` / ``Index.compact`` (which the
:class:`~repro.service.SearchService` serving an index writes through)
are backed by an :class:`IngestStore` transparently.  Use the store directly for
durable streaming ingestion (``IngestStore.create(directory=...)`` /
``IngestStore.open``), which is what ``repro ingest`` and
``repro serve --live`` do.
"""

from .manifest import ManifestState, read_manifest, write_manifest
from .memtable import Memtable
from .searcher import LSMSearcher
from .store import CompactionPolicy, IngestStore
from .tiered import Tier, TieredFingerprints, TieredIntervalIndex, TieredRankDocs
from .wal import WriteAheadLog, read_wal, wal_generations, wal_name

__all__ = [
    "CompactionPolicy",
    "IngestStore",
    "LSMSearcher",
    "ManifestState",
    "Memtable",
    "Tier",
    "TieredFingerprints",
    "TieredIntervalIndex",
    "TieredRankDocs",
    "WriteAheadLog",
    "read_manifest",
    "read_wal",
    "wal_generations",
    "wal_name",
    "write_manifest",
]
