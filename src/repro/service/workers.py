"""Shard worker processes: spawn, stop, and the worker → backend rule.

``repro serve --shards N --replicas R`` runs every replica of every
shard as its own ``repro serve --mmap`` process over that shard's
snapshot.  This module decides the *process lifecycle* and nothing
about routing:

* :func:`spawn_shard_workers` starts all workers of a
  :class:`~repro.service.plan.ShardPlan`; :func:`spawn_one_worker`
  starts one (the supervisor's restart).  Each :class:`ShardWorker`
  remembers the settings it was spawned with, so a restart states them
  nowhere else.
* :func:`stop_shard_workers` terminates, reaps and cleans up.
* :func:`backend_for_worker` is the one place a worker becomes an
  :class:`~repro.service.router.HTTPShardBackend` — at start-up
  (:func:`backends_for_workers`) and at supervisor re-admission alike.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
import tempfile
import time
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigurationError, WorkerStartupError
from .plan import ShardPlan, ShardSpec
from .router import HTTPShardBackend


@dataclass
class ShardWorker:
    """A spawned shard worker process and its serving URL."""

    spec: ShardSpec
    process: subprocess.Popen
    url: str
    replica: int = 0
    #: Where the worker's stderr is captured (a temp file, so a chatty
    #: long-running worker can never deadlock on a full pipe); read
    #: back into :class:`WorkerStartupError` when startup fails.
    stderr_path: Path | None = None
    #: The ``cache_size`` / ``workers`` / ``startup_timeout`` this worker
    #: was spawned with; a restart passes them to
    #: :func:`spawn_one_worker` again, so they are stated once.
    spawn_settings: dict = field(default_factory=dict)

    @property
    def pid(self) -> int:
        return self.process.pid


#: How much captured worker stderr a startup error carries.
_STDERR_TAIL_BYTES = 4000


def _stderr_tail(stderr_path: Path | None) -> str:
    if stderr_path is None:
        return ""
    try:
        text = Path(stderr_path).read_text(errors="replace")
    except OSError:
        return ""
    return text[-_STDERR_TAIL_BYTES:]


def _read_serving_line(
    process: subprocess.Popen,
    timeout: float,
    *,
    stderr_path: Path | None = None,
) -> str:
    """Read a worker's stdout until its ``SERVING <url>`` line.

    ``poll()``\\ s the child between reads: a worker that dies before
    serving fails fast with a :class:`~repro.errors.WorkerStartupError`
    carrying the exit code and captured stderr, instead of blocking the
    parent on a ``readline`` that will never return.
    """
    deadline = time.monotonic() + timeout
    assert process.stdout is not None
    selector: selectors.DefaultSelector | None = selectors.DefaultSelector()
    try:
        selector.register(process.stdout, selectors.EVENT_READ)
    except (ValueError, OSError, KeyError):
        # Not a selectable stream (e.g. a test double); fall back to
        # short blocking reads guarded by the same poll()/deadline loop.
        selector.close()
        selector = None
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerStartupError(
                    f"shard worker (pid {process.pid}) did not serve within "
                    f"{timeout}s",
                    returncode=process.poll(),
                    stderr=_stderr_tail(stderr_path),
                )
            if selector is not None:
                # Wait for readable stdout first: a worker that printed
                # SERVING and then exited still hands over its URL.
                ready = selector.select(timeout=min(0.1, remaining))
                if not ready:
                    if process.poll() is not None:
                        raise WorkerStartupError(
                            f"shard worker (pid {process.pid}) exited with "
                            f"code {process.returncode} before serving",
                            returncode=process.returncode,
                            stderr=_stderr_tail(stderr_path),
                        )
                    continue
            line = process.stdout.readline()
            if not line:
                # EOF: the worker closed stdout without ever serving.
                returncode = process.poll()
                if returncode is None:
                    if selector is None:
                        if process.poll() is None:
                            time.sleep(0.05)
                            continue
                    try:
                        returncode = process.wait(timeout=1.0)
                    except subprocess.TimeoutExpired:
                        returncode = None
                raise WorkerStartupError(
                    f"shard worker (pid {process.pid}) closed stdout "
                    f"(exit code {returncode}) before serving",
                    returncode=returncode,
                    stderr=_stderr_tail(stderr_path),
                )
            if line.startswith("SERVING "):
                return line.split(None, 1)[1].strip()
    finally:
        if selector is not None:
            selector.close()


def _launch_worker(
    directory: Path,
    spec: ShardSpec,
    replica: int,
    *,
    cache_size: int | None,
    workers: int | None,
    startup_timeout: float,
) -> ShardWorker:
    """Start one worker process; :func:`_await_serving` reads its URL."""
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--index",
        str(directory / spec.path),
        "--port",
        "0",
        "--mmap",
    ]
    if cache_size is not None:
        command += ["--cache-size", str(cache_size)]
    if workers is not None:
        command += ["--workers", str(workers)]
    stderr_fd, stderr_name = tempfile.mkstemp(
        prefix=f"repro-shard-{spec.shard_id:03d}-", suffix=".stderr"
    )
    try:
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=stderr_fd, text=True
        )
    except BaseException:
        Path(stderr_name).unlink(missing_ok=True)
        raise
    finally:
        os.close(stderr_fd)
    return ShardWorker(
        spec=spec,
        process=process,
        url="",
        replica=replica,
        stderr_path=Path(stderr_name),
        spawn_settings={
            "cache_size": cache_size,
            "workers": workers,
            "startup_timeout": startup_timeout,
        },
    )


def _await_serving(worker: ShardWorker) -> None:
    worker.url = _read_serving_line(
        worker.process,
        worker.spawn_settings["startup_timeout"],
        stderr_path=worker.stderr_path,
    )


def spawn_one_worker(
    directory: str | Path,
    spec: ShardSpec,
    *,
    replica: int = 0,
    cache_size: int | None = None,
    workers: int | None = None,
    startup_timeout: float = 60.0,
) -> ShardWorker:
    """Start (and wait for) a single shard worker process.

    Used by :class:`~repro.service.supervisor.ShardSupervisor` to
    restart one dead replica without touching its siblings (with the
    dead worker's ``spawn_settings``).  Raises
    :class:`~repro.errors.WorkerStartupError` — with the worker's exit
    code and stderr tail — when the process dies or hangs before its
    ``SERVING`` line; the process is reaped before the error leaves.
    """
    worker = _launch_worker(
        Path(directory),
        spec,
        replica,
        cache_size=cache_size,
        workers=workers,
        startup_timeout=startup_timeout,
    )
    try:
        _await_serving(worker)
    except BaseException:
        stop_shard_workers([worker])
        raise
    return worker


def spawn_shard_workers(
    directory: str | Path,
    plan: ShardPlan | None = None,
    *,
    cache_size: int | None = None,
    workers: int | None = None,
    startup_timeout: float = 60.0,
    replicas: int | None = None,
) -> list[ShardWorker]:
    """Start ``replicas`` ``repro serve`` processes per shard of ``plan``.

    Each worker maps its shard's compact snapshot (``--mmap``; replicas
    of a shard share the file, and the page cache deduplicates the
    mapping) and binds an ephemeral port; the returned
    :class:`ShardWorker`\\ s carry the parsed URLs, shard-major
    (``[s0r0, s0r1, ..., s1r0, ...]``).  ``replicas=None`` uses the
    plan's recorded count.  All processes launch before any ``SERVING``
    line is awaited, so startup latency is one worker's, not the sum.
    On any startup failure — including a worker that dies before
    serving, which raises :class:`~repro.errors.WorkerStartupError`
    with its stderr — every already-spawned worker is terminated before
    the error propagates.
    """
    directory = Path(directory)
    if plan is None:
        plan = ShardPlan.load(directory)
    if replicas is None:
        replicas = plan.replicas
    if replicas < 1:
        raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
    spawned: list[ShardWorker] = []
    try:
        for spec in plan.shards:
            for replica in range(replicas):
                spawned.append(
                    _launch_worker(
                        directory,
                        spec,
                        replica,
                        cache_size=cache_size,
                        workers=workers,
                        startup_timeout=startup_timeout,
                    )
                )
        for worker in spawned:
            _await_serving(worker)
        return spawned
    except BaseException:
        stop_shard_workers(spawned)
        raise


def stop_shard_workers(workers, *, timeout: float = 5.0) -> None:
    """Terminate (then kill) every worker process.  Idempotent."""
    workers = list(workers)
    for worker in workers:
        if worker.process.poll() is None:
            worker.process.terminate()
    deadline = time.monotonic() + timeout
    for worker in workers:
        remaining = max(0.1, deadline - time.monotonic())
        try:
            worker.process.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            worker.process.kill()
            worker.process.wait()
        if worker.process.stdout is not None:
            worker.process.stdout.close()
        if worker.stderr_path is not None:
            Path(worker.stderr_path).unlink(missing_ok=True)


def backend_for_worker(worker: ShardWorker, *, replicas: int) -> HTTPShardBackend:
    """The router backend for one worker of a shard served ``replicas`` times.

    The one worker → backend rule, used at start-up
    (:func:`backends_for_workers`) and when the supervisor re-admits a
    restarted worker, so a healed replica carries the budget of the one
    it replaces.  The client retry budget follows the replica count:
    with a sibling to fail over to, a retry only burns deadline budget
    on a worker that is already dead while a failover moves on to one
    that is not (``retries=0``); a lone replica gets two retries to ride
    out transient transport faults.
    """
    return HTTPShardBackend(
        worker.url,
        shard_id=worker.spec.shard_id,
        doc_lo=worker.spec.doc_lo,
        doc_hi=worker.spec.doc_hi,
        replica=worker.replica,
        retries=0 if replicas > 1 else 2,
        pid=worker.pid,
    )


def backends_for_workers(workers: Sequence[ShardWorker]) -> list[HTTPShardBackend]:
    """HTTP backends pointing at spawned shard workers."""
    replicas = Counter(worker.spec.shard_id for worker in workers)
    return [
        backend_for_worker(worker, replicas=replicas[worker.spec.shard_id])
        for worker in workers
    ]
