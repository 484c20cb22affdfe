"""repro.ingest: LSM-style streaming ingestion.

The write path of the library.  Writes land in a memtable
(:mod:`~repro.ingest.memtable`), which appends their ranks to one rank
column and indexes each burst of them in one array pass when a query or a seal
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

from .store import IngestStore
from .wal import read_wal, wal_generations

__all__ = ["IngestStore", "read_wal", "wal_generations"]
