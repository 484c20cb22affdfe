"""Self-healing supervision for shard worker processes.

:class:`ShardSupervisor` owns the ``repro serve`` worker processes
behind a :class:`~repro.service.router.ShardRouter` and closes the last
operator-in-the-loop gap in the serving stack: a SIGKILLed worker is
detected, restarted from its snapshot, and re-admitted to routing —
``/healthz`` returns to ``ok`` with no human action.  The router's
replica failover absorbs the death in the meantime, so with R >= 2 the
whole incident costs zero queries.

Each replica walks a small state machine::

    ok ──(process dead / health probe fails)──▶ dead
    dead ──(crash streak ≤ max)──▶ restarting ──▶ ok (readmitted)
    dead ──(crash streak > max)──▶ quarantined ──(backoff expires)──▶ restarting

* **Detection** — every ``check_interval`` seconds each worker is
  ``poll()``\\ ed (a reaped process is dead, no RPC needed) and, when
  alive, probed over ``/healthz``; either failing marks the replica
  dead and immediately deprioritizes it in the router
  (:meth:`~repro.service.router.ShardRouter.mark_replica_down`).
* **Restart** — the replica's shard spec is re-read from the plan
  manifest when a plan directory is known, so a restart after a new
  generation was written into the directory spawns the *current*
  generation, then the worker is respawned via
  :func:`~repro.service.workers.spawn_one_worker` with the settings
  the dead worker was spawned with.
* **Re-admission** — the restarted worker rejoins routing
  (:meth:`~repro.service.router.ShardRouter.replace_replica` +
  :meth:`~repro.service.router.ShardRouter.readmit_replica`) only after
  it passes a health check **and** a generation-consistency check
  against the manifest.  A worker serving a stale generation — the
  manifest moved while it was starting — is killed and retried rather
  than re-admitted: one stale replica would silently answer queries
  from the old corpus generation.  Its backend comes from
  :func:`~repro.service.workers.backend_for_worker`, the same rule
  start-up uses, so a healed replica keeps its retry budget.
* **Quarantine** — a replica whose crash streak exceeds
  :data:`MAX_CRASH_STREAK` is parked for an exponentially growing
  backoff (``BACKOFF_BASE * 2^(excess - 1)``, capped at
  :data:`BACKOFF_CAP`) instead of burning CPU on a restart loop; the
  condition is surfaced in ``/healthz`` as a
  :class:`~repro.errors.ReplicaQuarantinedError` message with its
  ``retry_after``.

Fault-injection points: ``supervisor.restart`` (before each respawn)
and ``supervisor.readmit`` (before each re-admission attempt), both
carrying ``shard=<id>, replica=<r>`` context.

The metrics registry records only *event* counters (deaths, restarts,
readmits, quarantines) — never per-check-tick counters — so a chaos
run that kills K workers produces the same snapshot every time and
two runs diff counter for counter.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from .. import faults
from ..errors import ReplicaQuarantinedError, WorkerStartupError
from ..obs import MetricsRegistry
from .client import remote_healthz
from .plan import ShardPlan
from .router import HTTPShardBackend
from .workers import (
    ShardWorker,
    backend_for_worker,
    spawn_one_worker,
    stop_shard_workers,
)

#: Replica states (see the module docstring's state machine).
STATE_OK = "ok"
STATE_DEAD = "dead"
STATE_RESTARTING = "restarting"
STATE_QUARANTINED = "quarantined"

#: Socket timeout (seconds) of each ``/healthz`` probe.
HEALTH_TIMEOUT = 2.0

#: Consecutive failures (death, failed restart, failed readmit) a
#: replica is allowed before it is quarantined.
MAX_CRASH_STREAK = 3

#: Quarantine backoff: ``BACKOFF_BASE * 2^(streak - MAX_CRASH_STREAK - 1)``
#: seconds, capped at ``BACKOFF_CAP``.
BACKOFF_BASE = 0.5
BACKOFF_CAP = 30.0


class _ReplicaRecord:
    """Mutable supervision state for one (shard, replica) slot."""

    __slots__ = (
        "worker",
        "state",
        "crash_streak",
        "restarts",
        "quarantined_until",
        "last_error",
    )

    def __init__(self, worker: ShardWorker) -> None:
        self.worker = worker
        self.state = STATE_OK
        self.crash_streak = 0
        self.restarts = 0
        self.quarantined_until = 0.0
        self.last_error = ""


class ShardSupervisor:
    """Monitor, restart, and re-admit shard worker replicas.

    Parameters
    ----------
    router:
        The :class:`~repro.service.router.ShardRouter` whose replica
        slots this supervisor heals.
    workers:
        The :class:`~repro.service.workers.ShardWorker`\\ s backing the
        router's backends, as returned by
        :func:`~repro.service.workers.spawn_shard_workers`.
    directory:
        The shard-plan directory.  When given, restarts re-read the
        manifest so they always spawn the current generation; when
        ``None`` only injected ``spawn_worker`` collaborators can
        restart, from the original spec.
    check_interval:
        Seconds between liveness sweeps of the monitor thread.
    spawn_worker / make_backend / probe / clock:
        Injection points for tests: respawn a worker from a spec,
        wrap a worker in a router backend, probe a worker's health
        (return its healthz dict or raise), and read monotonic time.
    """

    def __init__(
        self,
        router,
        workers,
        *,
        directory: str | Path | None = None,
        check_interval: float = 1.0,
        spawn_worker=None,
        make_backend=None,
        probe=None,
        clock=time.monotonic,
    ) -> None:
        self.router = router
        self.directory = Path(directory) if directory is not None else None
        self.check_interval = check_interval
        self._spawn_worker = spawn_worker or self._default_spawn
        self._make_backend = make_backend or self._default_backend
        self._probe = probe or self._default_probe
        self._clock = clock
        self._lock = threading.RLock()
        self._records: dict[tuple[int, int], _ReplicaRecord] = {}
        for worker in workers:
            key = (worker.spec.shard_id, worker.replica)
            if key in self._records:
                raise ValueError(
                    f"duplicate worker for shard {key[0]} replica {key[1]}"
                )
            self._records[key] = _ReplicaRecord(worker)
        self.metrics_registry = MetricsRegistry()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        router.attach_supervisor(self)

    # ------------------------------------------------------------------
    # Default collaborators (forked worker processes over HTTP)
    # ------------------------------------------------------------------
    def _default_spawn(self, spec, replica: int) -> ShardWorker:
        if self.directory is None:
            raise WorkerStartupError(
                "supervisor has no plan directory to respawn workers from"
            )
        dead = self._records[(spec.shard_id, replica)].worker
        return spawn_one_worker(
            self.directory, spec, replica=replica, **dead.spawn_settings
        )

    def _default_backend(self, worker: ShardWorker) -> HTTPShardBackend:
        shard_id = worker.spec.shard_id
        replicas = sum(1 for shard, _ in self._records if shard == shard_id)
        return backend_for_worker(worker, replicas=replicas)

    def _default_probe(self, worker: ShardWorker) -> dict:
        return remote_healthz(worker.url, http_timeout=HEALTH_TIMEOUT)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardSupervisor":
        """Run the monitor loop in a daemon thread.  Idempotent."""
        with self._lock:
            if self._thread is None or not self._thread.is_alive():
                self._stop.clear()
                self._thread = threading.Thread(
                    target=self._run, name="shard-supervisor", daemon=True
                )
                self._thread.start()
        return self

    def stop(self) -> None:
        """Stop monitoring (worker processes are left as they are)."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=10.0)

    def _run(self) -> None:
        while not self._stop.wait(self.check_interval):
            try:
                self.check_once()
            except Exception:  # noqa: BLE001 - the monitor must survive
                # A failed sweep (e.g. a transient manifest read error)
                # must not kill supervision; the next tick retries.
                continue

    @property
    def workers(self) -> list[ShardWorker]:
        """Current worker handles (restarts replace entries in place)."""
        with self._lock:
            return [record.worker for record in self._records.values()]

    # ------------------------------------------------------------------
    # One supervision sweep
    # ------------------------------------------------------------------
    def check_once(self) -> None:
        """Probe every replica once; restart/readmit/quarantine as needed."""
        with self._lock:
            items = sorted(self._records.items())
        for key, record in items:
            if self._stop.is_set():
                return
            with self._lock:
                state = record.state
                if state == STATE_QUARANTINED:
                    if self._clock() < record.quarantined_until:
                        continue
                    # Backoff expired: one more restart attempt.
                    record.state = STATE_DEAD
            if record.state == STATE_DEAD:
                self._restart_and_readmit(key, record)
                continue
            # state == ok: liveness + health probe.
            if record.worker.process.poll() is not None:
                self._on_death(
                    key,
                    record,
                    f"worker pid {record.worker.pid} exited with code "
                    f"{record.worker.process.returncode}",
                )
                self._restart_if_allowed(key, record)
                continue
            try:
                health = self._probe(record.worker)
            except Exception as exc:  # noqa: BLE001 - probe failure = dead
                self._on_death(key, record, f"health probe failed: {exc}")
                self._restart_if_allowed(key, record)
                continue
            if health.get("status") not in ("ok", "degraded"):
                self._on_death(
                    key, record, f"worker reported status {health.get('status')!r}"
                )
                self._restart_if_allowed(key, record)
                continue
            # Healthy: a full clean sweep clears the crash streak, so
            # only rapid die-restart-die cycles count toward quarantine.
            with self._lock:
                record.crash_streak = 0
                record.last_error = ""

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def _on_death(
        self, key: tuple[int, int], record: _ReplicaRecord, reason: str
    ) -> None:
        shard_id, replica = key
        with self._lock:
            record.state = STATE_DEAD
            record.crash_streak += 1
            record.last_error = reason
        self.metrics_registry.counter("supervisor.deaths").inc()
        self.router.mark_replica_down(shard_id, replica)

    def _quarantine(self, key: tuple[int, int], record: _ReplicaRecord) -> None:
        shard_id, replica = key
        excess = record.crash_streak - MAX_CRASH_STREAK
        backoff = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** (excess - 1)))
        error = ReplicaQuarantinedError(
            f"shard {shard_id} replica {replica} crash-looped "
            f"{record.crash_streak} times; quarantined for {backoff:.1f}s "
            f"(last error: {record.last_error})",
            shard_id=shard_id,
            replica=replica,
            retry_after=backoff,
        )
        with self._lock:
            record.state = STATE_QUARANTINED
            record.quarantined_until = self._clock() + backoff
            record.last_error = str(error)
        self.metrics_registry.counter("supervisor.quarantines").inc()

    def _restart_if_allowed(
        self, key: tuple[int, int], record: _ReplicaRecord
    ) -> None:
        if record.crash_streak > MAX_CRASH_STREAK:
            self._quarantine(key, record)
        else:
            self._restart_and_readmit(key, record)

    def _current_spec(self, shard_id: int, fallback):
        """The shard's spec as of *now* — manifest wins over memory."""
        if self.directory is not None:
            plan = ShardPlan.load(self.directory)
            for spec in plan.shards:
                if spec.shard_id == shard_id:
                    return spec
        return fallback

    def _restart_and_readmit(
        self, key: tuple[int, int], record: _ReplicaRecord
    ) -> None:
        shard_id, replica = key
        with self._lock:
            record.state = STATE_RESTARTING
            old_worker = record.worker
        try:
            faults.inject("supervisor.restart", shard=shard_id, replica=replica)
            spec = self._current_spec(shard_id, old_worker.spec)
            new_worker = self._spawn_worker(spec, replica)
        except Exception as exc:  # noqa: BLE001 - a failed restart is a crash
            self.metrics_registry.counter("supervisor.restart_failures").inc()
            with self._lock:
                record.state = STATE_DEAD
                record.crash_streak += 1
                record.last_error = f"restart failed: {exc}"
            if record.crash_streak > MAX_CRASH_STREAK:
                self._quarantine(key, record)
            return
        self.metrics_registry.counter("supervisor.restarts").inc()
        # Reap the corpse (and its captured stderr) now that the slot
        # has a successor.
        stop_shard_workers([old_worker])
        if not self._readmit(key, record, new_worker):
            return
        with self._lock:
            record.worker = new_worker
            record.state = STATE_OK
            record.restarts += 1
            record.last_error = ""
        self.metrics_registry.counter("supervisor.readmits").inc()

    def _readmit(
        self,
        key: tuple[int, int],
        record: _ReplicaRecord,
        new_worker: ShardWorker,
    ) -> bool:
        """Health + generation gate; only then rejoin routing."""
        shard_id, replica = key
        try:
            faults.inject("supervisor.readmit", shard=shard_id, replica=replica)
            health = self._probe(new_worker)
            if health.get("status") != "ok":
                raise WorkerStartupError(
                    f"restarted worker reports status "
                    f"{health.get('status')!r}, not ok"
                )
            # Generation-consistency rule: never re-admit a replica
            # serving an older generation than the manifest — a new
            # generation that landed while the worker was starting
            # would otherwise leave one replica silently answering from
            # the old corpus.
            current = self._current_spec(shard_id, new_worker.spec)
            if new_worker.spec.generation != current.generation:
                raise WorkerStartupError(
                    f"restarted worker serves generation "
                    f"{new_worker.spec.generation}, manifest moved to "
                    f"{current.generation}; not re-admitting"
                )
            backend = self._make_backend(new_worker)
            self.router.replace_replica(shard_id, replica, backend)
            self.router.readmit_replica(shard_id, replica)
        except Exception as exc:  # noqa: BLE001 - a failed readmit is a crash
            self.metrics_registry.counter("supervisor.readmit_failures").inc()
            stop_shard_workers([new_worker])
            with self._lock:
                record.state = STATE_DEAD
                record.crash_streak += 1
                record.last_error = f"readmit failed: {exc}"
            if record.crash_streak > MAX_CRASH_STREAK:
                self._quarantine(key, record)
            return False
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self) -> dict:
        """Deterministically ordered snapshot for ``/healthz``."""
        now = self._clock()
        replicas = []
        with self._lock:
            items = sorted(self._records.items())
            for (shard_id, replica), record in items:
                entry = {
                    "shard_id": shard_id,
                    "replica": replica,
                    "state": record.state,
                    "pid": record.worker.pid,
                    "url": record.worker.url,
                    "restarts": record.restarts,
                    "crash_streak": record.crash_streak,
                }
                if record.last_error:
                    entry["last_error"] = record.last_error
                if record.state == STATE_QUARANTINED:
                    entry["retry_after"] = max(
                        0.0, record.quarantined_until - now
                    )
                replicas.append(entry)
        return {
            "name": "shard-supervisor",
            "check_interval": self.check_interval,
            "replicas": replicas,
        }

    def __enter__(self) -> "ShardSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        with self._lock:
            states = sorted(
                (key, record.state) for key, record in self._records.items()
            )
        return f"ShardSupervisor({states})"
