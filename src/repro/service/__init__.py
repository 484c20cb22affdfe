"""Concurrent query serving: :class:`SearchService` plus an HTTP front-end.

The serving layer turns a loaded searcher bundle into a long-running,
thread-safe query service:

* :class:`SearchService` — bounded worker pool with admission control
  (typed :class:`~repro.errors.ServiceOverloadError` carrying a
  retry-after estimate), per-request deadlines with cooperative
  cancellation inside the slide loop, and an epoch-invalidated LRU
  result cache (:class:`ResultCache`) that keeps cached and fresh
  results pair-for-pair identical across index mutations.
* :func:`serve_http` / :class:`ServiceHTTPServer` — a stdlib
  ``ThreadingHTTPServer`` exposing ``/search``, ``/healthz`` and
  ``/metrics``.
* :func:`remote_search` / :func:`remote_healthz` / :func:`remote_metrics`
  — a tiny ``urllib`` client for scripts and the ``repro query
  --server`` CLI path — plus :class:`ResilientClient`, the production
  wrapper with jittered retries, a deadline budget, and a circuit
  breaker (``repro query --retries/--timeout``).
* Sharded scatter-gather serving (``repro serve --shards N --replicas
  R``), one module per decision: :mod:`~repro.service.plan` —
  :class:`ShardPlan` partitions a corpus into compact snapshot shards
  (times ``replicas`` workers per shard) with a persisted manifest;
  :mod:`~repro.service.router` — :class:`ShardRouter` fans every query
  out to one replica per shard (in-process services or HTTP workers),
  fails over to sibling replicas before declaring a shard dead, merges
  pairs in canonical order, reports dead shards as partial results and
  holds the deployment's one result cache (a read path only: ``/ingest``
  and ``/remove`` answer 405 on a router); :mod:`~repro.service.workers`
  — the :class:`WorkerLauncher` every worker process is forked from,
  stopping the workers, and the one worker → backend rule.
* :class:`~repro.service.supervisor.ShardSupervisor` — self-healing
  supervision of the spawned worker processes: detects death, restarts
  from the snapshot, re-admits after health + generation checks, and
  quarantines crash-loopers with exponential backoff.
"""

from .cache import CacheKey, ResultCache, query_token_hash
from .client import (
    CircuitBreaker,
    ResilientClient,
    remote_healthz,
    remote_metrics,
    remote_search,
)
from .http import ServiceHTTPServer, ServiceRequestHandler, serve_http
from .service import SearchService, ServiceFuture, ServiceResponse
from .plan import ShardPlan, ShardSpec, partition_ranges
from .router import (
    HTTPShardBackend,
    LocalShardBackend,
    ReplicaSet,
    RouterResponse,
    ShardRouter,
)
from .supervisor import ShardSupervisor
from .workers import (
    ShardWorker,
    WorkerLauncher,
    backends_for_workers,
    spawn_one_worker,
    spawn_shard_workers,
    stop_shard_workers,
)

__all__ = [
    "SearchService",
    "ServiceFuture",
    "ServiceResponse",
    "ResultCache",
    "CacheKey",
    "query_token_hash",
    "ServiceHTTPServer",
    "ServiceRequestHandler",
    "serve_http",
    "remote_search",
    "remote_healthz",
    "remote_metrics",
    "ResilientClient",
    "CircuitBreaker",
    "ShardPlan",
    "ShardSpec",
    "ShardRouter",
    "ShardSupervisor",
    "ReplicaSet",
    "RouterResponse",
    "LocalShardBackend",
    "HTTPShardBackend",
    "ShardWorker",
    "WorkerLauncher",
    "partition_ranges",
    "spawn_one_worker",
    "spawn_shard_workers",
    "stop_shard_workers",
    "backends_for_workers",
]
