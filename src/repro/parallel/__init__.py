"""Multi-core batch execution (query sharding, self-join).

The pkwise pipeline is embarrassingly parallel at two natural grains:
queries within a workload, and probe documents within a self-join.
:class:`ParallelExecutor` exploits both with a process pool
(pure-Python hot loops gain nothing from threads under the GIL) while
guaranteeing that every parallel code path returns exactly what the
serial path returns, in the same order.

Worker state transport
----------------------
Workers need the read-only searcher.  Wherever :mod:`multiprocessing`
offers ``fork`` (Linux, macOS) the pool forks and workers inherit it
through copy-on-write memory — zero serialization cost.  Where it does
not (Windows) the executor uses ``spawn``: a
:class:`~repro.core.pkwise.PKWiseSearcher` travels through a temporary
:mod:`repro.persistence` index file, any other engine through pickle.
The choice is the constant ``executor.START_METHOD``, not an option.

Fault tolerance
---------------
Workloads and self-joins run under supervised dispatch: failed chunks
retry with capped exponential backoff, repeat offenders are bisected
down to the poison item, dead worker processes trigger bounded pool
restarts, and optional chunk-granularity checkpoints
(:class:`~repro.parallel.checkpoint.RunCheckpoint`) make interrupted runs
resumable.
"""

from .executor import ParallelExecutor

__all__ = ["ParallelExecutor"]
