"""Exception hierarchy for the repro library.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch the whole family with a single
``except`` clause while still being able to discriminate on subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A parameter or combination of parameters is invalid.

    Raised, for example, when the window size violates the completeness
    condition of Theorem 2 (``w >= tau + 1 + k_max * (k_max - 1) / 2``),
    or when a threshold is out of range.
    """


class TokenizationError(ReproError):
    """A document could not be tokenized (e.g. bad q-gram length)."""


class UnknownTokenError(ReproError, KeyError):
    """A frozen vocabulary lookup hit a token it has never interned.

    Subclasses ``KeyError`` so pre-existing ``except KeyError`` callers
    keep working, but carries the offending token so the message names
    *what* was unknown instead of surfacing a bare mapping failure.
    """

    def __init__(self, token: str) -> None:
        super().__init__(f"token {token!r} is not in the vocabulary")
        self.token = token

    def __str__(self) -> str:  # KeyError.__str__ would repr() the args
        return self.args[0]


class CorpusError(ReproError):
    """A document collection is malformed or cannot be loaded."""


class PartitioningError(ReproError):
    """A partition scheme is inconsistent with the token universe."""


class SearchCancelled(ReproError):
    """A search was cancelled cooperatively through its cancel callback.

    Raised from inside the slide loop when the caller-supplied cancel
    callback returns True between query windows; carries how far the
    search had progressed so callers can report partial work.
    """

    def __init__(self, message: str, windows_processed: int = 0) -> None:
        super().__init__(message)
        self.windows_processed = windows_processed


class FaultInjectionError(ReproError):
    """A deliberately injected fault (see :mod:`repro.faults`).

    Never raised in production paths — only when a fault plan is
    installed and one of its ``raise`` rules fires.  Carries the
    injection-point name so recovery tests can assert provenance.
    """

    def __init__(self, message: str, point: str = "") -> None:
        super().__init__(message)
        self.point = point


class WorkerCrashError(ReproError):
    """The parallel worker pool crashed more times than allowed.

    Raised by :class:`~repro.parallel.ParallelExecutor` when worker
    processes keep dying (``max_pool_restarts`` exceeded).  Work that
    completed before the crash is preserved in the run's checkpoint
    when one was configured — rerun with ``resume=True``.
    """

    def __init__(self, message: str, restarts: int = 0) -> None:
        super().__init__(message)
        self.restarts = restarts


class ServiceError(ReproError):
    """Base class for errors raised by :mod:`repro.service`."""


class ServiceOverloadError(ServiceError):
    """The service's admission queue is full; retry after a backoff.

    ``retry_after`` is the service's estimate (in seconds) of when
    capacity will free up, derived from current queue depth and the
    observed average request latency.  The HTTP front-end maps this to
    a ``429`` response with a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceededError(ServiceError):
    """A request's deadline passed before its search completed."""


class CircuitOpenError(ServiceError):
    """The client's circuit breaker is open; the request was not sent.

    Raised by :class:`~repro.service.client.ResilientClient` after
    ``FAILURE_THRESHOLD`` consecutive connect/5xx failures; requests
    fail fast until the ``BREAKER_RESET`` cooldown admits a half-open
    probe.  ``retry_after`` estimates seconds until that probe.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServiceClosedError(ServiceError):
    """The service has been shut down and accepts no new requests."""


class WorkerStartupError(ServiceError):
    """A spawned shard worker died (or hung) before it started serving.

    Raised by :func:`~repro.service.workers.spawn_shard_workers` when a
    worker process exits before printing its ``SERVING`` line or fails
    to serve within the startup timeout, or when the
    :class:`~repro.service.workers.WorkerLauncher` that forks workers is
    gone.  Carries the worker's exit
    code (``None`` if it is still running) and the tail of its captured
    stderr so the operator sees *why* the worker died instead of a bare
    timeout.
    """

    def __init__(
        self,
        message: str,
        returncode: int | None = None,
        stderr: str = "",
    ) -> None:
        super().__init__(message)
        self.returncode = returncode
        self.stderr = stderr


class ReplicaQuarantinedError(ServiceError):
    """A crash-looping shard replica was quarantined by its supervisor.

    Raised (and surfaced through ``/healthz``) by
    :class:`~repro.service.supervisor.ShardSupervisor` when a replica
    keeps dying immediately after being restarted: instead of burning
    CPU on a restart loop, the supervisor parks the replica for an
    exponentially growing backoff.  ``retry_after`` estimates seconds
    until the next restart attempt.
    """

    def __init__(
        self,
        message: str,
        *,
        shard_id: int = -1,
        replica: int = -1,
        retry_after: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.replica = replica
        self.retry_after = retry_after


class IndexError_(ReproError):
    """The inverted/interval index is in an inconsistent state.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`; exported as ``IndexStateError`` from the package
    root.
    """


# Public alias with a less awkward name.
IndexStateError = IndexError_


class RoutingUnavailableError(IndexError_):
    """Routing was requested but the snapshot carries no fingerprints.

    Raised when a query asks for routing mode ``"exact"`` against a
    compact snapshot that was saved without a routing section (built
    with ``mode="off"``).  Rebuild or re-save the snapshot under
    ``mode="exact"``, or query with ``mode="off"``.
    """
