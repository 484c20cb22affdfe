"""Concurrent query serving: :class:`SearchService` plus an HTTP front-end.

The serving layer turns a loaded :class:`~repro.Index` into a
long-running, thread-safe query service:

* :class:`SearchService` — bounded worker pool with admission control
  (typed :class:`~repro.errors.ServiceOverloadError` carrying a
  retry-after estimate), per-request deadlines with cooperative
  cancellation inside the slide loop, and an epoch-invalidated LRU
  result cache (:class:`~repro.service.cache.ResultCache`) that keeps cached
  and fresh results pair-for-pair identical across index mutations.
* :func:`serve_http` / :class:`~repro.service.http.ServiceHTTPServer`
  — a stdlib
  ``ThreadingHTTPServer`` exposing ``/search``, ``/healthz`` and
  ``/metrics``.
* :mod:`~repro.service.client` — ``remote_search`` / ``remote_healthz``
  / ``remote_metrics``, a tiny ``urllib`` client for scripts and the
  ``repro query --server`` CLI path, plus ``ResilientClient``, the production
  wrapper with jittered retries and a deadline budget (``repro query
  --retries/--timeout``).
* Sharded scatter-gather serving (``repro serve --shards N --replicas
  R``), one module per decision: :mod:`~repro.service.plan` —
  :class:`ShardPlan` partitions a corpus into compact snapshot shards
  (times ``replicas`` workers per shard) with a persisted manifest;
  :mod:`~repro.service.router` — :class:`ShardRouter` fans every query
  out to one replica per shard (HTTP worker processes),
  fails over to sibling replicas before declaring a shard dead, merges
  pairs in canonical order, reports dead shards as partial results and
  holds the deployment's one result cache (a read path only: ``/ingest``
  and ``/remove`` answer 405 on a router); :mod:`~repro.service.workers`
  — the :class:`WorkerLauncher` every worker process is forked from,
  stopping the workers, and the one worker → backend rule.
* :class:`ShardSupervisor` — self-healing
  supervision of the spawned worker processes: detects death, restarts
  from the snapshot, re-admits after health + generation checks, and
  quarantines crash-loopers with exponential backoff.
"""

from .http import serve_http
from .plan import ShardPlan
from .router import ShardRouter
from .service import SearchService
from .supervisor import ShardSupervisor
from .workers import (
    WorkerLauncher,
    backends_for_workers,
    spawn_shard_workers,
    stop_shard_workers,
)

__all__ = [
    "SearchService",
    "serve_http",
    "ShardPlan",
    "ShardRouter",
    "ShardSupervisor",
    "WorkerLauncher",
    "spawn_shard_workers",
    "stop_shard_workers",
    "backends_for_workers",
]
