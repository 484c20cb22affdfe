"""Shard worker processes: launch, stop, and the worker → backend rule.

``repro serve --shards N --replicas R`` runs every replica of every
shard as its own ``repro serve --mmap`` process over that shard's
snapshot.  This module decides the *process lifecycle* and nothing
about routing:

* :class:`WorkerLauncher` is the one way a worker process comes to be.
  It is a single-threaded process forked from the caller after its
  imports and before its first thread, so it already holds ``repro``
  and numpy; every worker — at start-up and at each supervisor restart
  — is ``fork()``\\ ed from it and runs ``cli.main(["serve", ...])``,
  with no interpreter boot and no import.  The caller holds a
  :class:`WorkerProcess` per worker: the part of ``subprocess.Popen``
  the router reads, with exit statuses relayed by the launcher, which
  reaps each worker as it exits.
* :func:`spawn_shard_workers` starts all workers of a
  :class:`~repro.service.plan.ShardPlan`; :func:`spawn_one_worker`
  starts one (the supervisor's restart).  Each :class:`ShardWorker`
  remembers the settings it was spawned with — its launcher included —
  so a restart states them nowhere else.
* :func:`stop_shard_workers` terminates, reaps and cleans up.
* :func:`backend_for_worker` is the one place a worker becomes an
  :class:`~repro.service.router.HTTPShardBackend` — at start-up
  (:func:`backends_for_workers`) and at supervisor re-admission alike.
"""

from __future__ import annotations

import ctypes
import faulthandler
import json
import os
import select
import selectors
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .. import faults
from ..errors import ConfigurationError, WorkerStartupError
from ..obs import get_tracer
from .plan import ShardPlan, ShardSpec
from .router import HTTPShardBackend

#: Largest launcher message (a ``serve`` argv, or one reply).
_MESSAGE_BYTES = 65536

#: How long a launcher whose caller has gone gives its workers to stop
#: on SIGTERM before it SIGKILLs them.
_ORPHAN_GRACE_SECONDS = 3.0

#: ``prctl`` option that signals a child when its parent exits.
_PR_SET_PDEATHSIG = 1


class WorkerLauncher:
    """The single-threaded process every shard worker is forked from.

    :meth:`start` forks it from the caller, which must still run one
    Python thread: a fork copies only the forking thread, so a lock
    another thread held would stay held in the child for good.  The
    launcher then stays single-threaded for life, and the caller may
    start threads and ask for workers from any of them — no thread of
    the caller ever forks again.

    Requests travel over a ``SOCK_SEQPACKET`` socket pair: the caller
    sends a ``serve`` argv with the worker's stdout and stderr as file
    descriptors, the launcher forks and answers with the pid, and later
    relays the worker's exit status when it reaps it.  Signals go
    through the launcher too, which sends them only to a child it has
    not reaped, so a signal can never reach a reused pid.

    The launcher exits when the caller's end of the socket closes
    (:meth:`close`, or the caller's death), terminating any workers it
    still has; a worker dies with the launcher (``PR_SET_PDEATHSIG``).
    """

    def __init__(self, pid: int, channel: socket.socket) -> None:
        self.pid = pid
        self._channel = channel
        self._lock = threading.Lock()
        self._live: dict[int, WorkerProcess] = {}
        self._gone = False
        self._reaped = False

    @classmethod
    def start(cls) -> "WorkerLauncher":
        """Fork the launcher from this (still single-threaded) process."""
        threads = threading.enumerate()
        if len(threads) > 1:
            raise ConfigurationError(
                "the worker launcher must be forked while the process runs "
                "one thread; running: "
                + ", ".join(thread.name for thread in threads)
            )
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        # Unwritten buffers would be written twice: by us and the child.
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the launcher process
            ours.close()
            _run_launcher(theirs)
        theirs.close()
        return cls(pid, ours)

    # ------------------------------------------------------------------
    def launch(
        self, argv: Sequence[str], *, stdout: int, stderr: int
    ) -> "WorkerProcess":
        """Fork a worker running ``cli.main(argv)``.

        ``stdout`` / ``stderr`` are descriptors the worker gets as fd 1
        and 2 (the caller keeps, and closes, its own).  Raises
        :class:`~repro.errors.WorkerStartupError` when the launcher is
        gone or cannot fork.
        """
        request = json.dumps({"op": "spawn", "argv": list(argv)}).encode()
        with self._lock:
            try:
                if self._gone:
                    raise OSError("it has exited")
                socket.send_fds(self._channel, [request], [stdout, stderr])
                while True:
                    if not select.select([self._channel], [], [], 30.0)[0]:
                        raise TimeoutError("no reply within 30 s")
                    reply = self._receive(block=True)
                    if "spawned" in reply:
                        break
                    if "error" in reply:
                        raise WorkerStartupError(
                            f"worker launcher (pid {self.pid}) could not "
                            f"fork a worker: {reply['error']}"
                        )
            except OSError as exc:
                self._lost()
                raise WorkerStartupError(
                    f"worker launcher (pid {self.pid}) is gone: {exc}"
                ) from exc
            # Tracked before the lock is let go, so no exit notice can
            # arrive for a pid nobody holds.
            process = WorkerProcess(self, reply["spawned"])
            self._live[process.pid] = process
            return process

    def _receive(self, *, block: bool) -> dict:
        """One message from the launcher, exit notices applied on the way.

        Caller holds ``_lock``.  Returns ``{}`` when nothing is waiting
        (``block=False``); raises :class:`OSError` when the launcher has
        gone.
        """
        flags = 0 if block else socket.MSG_DONTWAIT
        try:
            data = self._channel.recv(_MESSAGE_BYTES, flags)
        except BlockingIOError:
            return {}
        if not data:
            raise ConnectionResetError("the launcher closed its socket")
        message = json.loads(data)
        if "exited" in message:
            process = self._live.pop(message["exited"], None)
            if process is not None:
                process.returncode = message["returncode"]
        return message

    def _lost(self) -> None:
        """The launcher is gone, and so is every worker it had: each was
        SIGKILLed as its parent died.  Caller holds ``_lock``."""
        self._gone = True
        for process in self._live.values():
            process.returncode = -signal.SIGKILL
        self._live.clear()

    def pump(self, timeout: float = 0.0) -> None:
        """Apply every exit notice that arrives within ``timeout``."""
        with self._lock:
            if self._gone:
                return
            try:
                if select.select([self._channel], [], [], timeout)[0]:
                    while self._receive(block=False):
                        pass
            except (OSError, ValueError):
                self._lost()

    def send_signal(self, pid: int, signum: int) -> None:
        """Signal a worker the launcher has not yet reaped."""
        message = json.dumps({"op": "signal", "pid": pid, "signal": signum})
        with self._lock:
            if self._gone or pid not in self._live:
                return
            try:
                self._channel.send(message.encode())
            except OSError:
                self._lost()

    # ------------------------------------------------------------------
    def close(self, timeout: float = 5.0) -> None:
        """Close the socket (the launcher stops its workers and exits)
        and reap the launcher.  Idempotent."""
        with self._lock:
            self._channel.close()
            self._lost()
        if self._reaped:
            return
        self._reaped = True
        deadline = time.monotonic() + timeout
        try:
            while os.waitpid(self.pid, os.WNOHANG) == (0, 0):
                if time.monotonic() > deadline:
                    os.kill(self.pid, signal.SIGKILL)
                    os.waitpid(self.pid, 0)
                    break
                time.sleep(0.01)
        except ChildProcessError:  # reaped already
            pass

    def __enter__(self) -> "WorkerLauncher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class WorkerProcess:
    """A worker forked by a :class:`WorkerLauncher`, read like a ``Popen``.

    ``returncode`` is the worker's status as the launcher reaped it
    (``-N`` for a death by signal ``N``); ``stdout`` is the read end of
    the worker's stdout pipe.
    """

    def __init__(self, launcher: WorkerLauncher, pid: int) -> None:
        self.launcher = launcher
        self.pid = pid
        self.stdout = None
        self.returncode: int | None = None

    def poll(self) -> int | None:
        if self.returncode is None:
            self.launcher.pump()
        return self.returncode

    def wait(self, timeout: float | None = None) -> int:
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.poll() is None:
            remaining = 0.05 if deadline is None else deadline - time.monotonic()
            if remaining <= 0:
                raise subprocess.TimeoutExpired(f"worker pid {self.pid}", timeout)
            self.launcher.pump(min(0.05, remaining))
        return self.returncode

    def send_signal(self, signum: int) -> None:
        self.launcher.send_signal(self.pid, signum)

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


# ----------------------------------------------------------------------
# Inside the launcher and its workers (each function ends in os._exit)
# ----------------------------------------------------------------------
def _close_fds_except(keep) -> None:
    low = 3
    for fd in sorted(fd for fd in keep if fd >= low):
        os.closerange(low, fd)
        low = fd + 1
    os.closerange(low, os.sysconf("SC_OPEN_MAX"))


def _forget_inherited_state() -> None:
    """What a fresh interpreter would not hold: the parent's fault plan
    (``REPRO_FAULTS`` is read again on first use) and its trace sink
    and span counters."""
    faults.clear_plan()
    get_tracer().forget()


def _prctl():
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):  # not Linux: workers outlive a lost launcher
        return None
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    return prctl


def _run_launcher(channel: socket.socket) -> None:  # pragma: no cover - forked
    code = 0
    try:
        inherited = {
            signum: signal.getsignal(signum)
            for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGCHLD)
        }
        # Ctrl-C reaches the whole process group; the caller decides
        # when workers stop, so the launcher ignores it.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        wake_r, wake_w = os.pipe()
        os.set_blocking(wake_r, False)
        os.set_blocking(wake_w, False)
        signal.signal(signal.SIGCHLD, lambda signum, frame: None)
        signal.set_wakeup_fd(wake_w)
        _forget_inherited_state()
        _close_fds_except({channel.fileno(), wake_r, wake_w})
        prctl = _prctl()
        launcher_pid = os.getpid()
        children: set[int] = set()

        def reap(block: bool) -> None:
            while children:
                pid, status = os.waitpid(-1, 0 if block else os.WNOHANG)
                if pid == 0:
                    return
                children.discard(pid)
                notice = {"exited": pid,
                          "returncode": os.waitstatus_to_exitcode(status)}
                try:
                    channel.send(json.dumps(notice).encode())
                except OSError:  # the caller has gone; keep reaping
                    pass

        while True:
            readable = select.select([channel, wake_r], [], [])[0]
            if wake_r in readable:  # one byte per SIGCHLD
                os.read(wake_r, 512)
            reap(block=False)
            if channel not in readable:
                continue
            try:
                data, fds, _flags, _addr = socket.recv_fds(
                    channel, _MESSAGE_BYTES, 2
                )
            except OSError:
                data, fds = b"", []
            if not data:
                break
            request = json.loads(data)
            if request["op"] == "signal":
                if request["pid"] in children:
                    os.kill(request["pid"], request["signal"])
                continue
            try:
                pid = os.fork()
            except OSError as exc:
                reply = {"error": str(exc)}
            else:
                if pid == 0:
                    _run_worker(
                        request["argv"], fds, inherited, launcher_pid, prctl
                    )
                children.add(pid)
                reply = {"spawned": pid}
            for fd in fds:
                os.close(fd)
            try:
                channel.send(json.dumps(reply).encode())
            except OSError:  # the caller has gone
                break
        # The caller has gone: stop what is left, then leave.
        for pid in children:
            os.kill(pid, signal.SIGTERM)
        deadline = time.monotonic() + _ORPHAN_GRACE_SECONDS
        while children and time.monotonic() < deadline:
            reap(block=False)
            time.sleep(0.02)
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        reap(block=True)
    except BaseException:  # noqa: BLE001 - the launcher must never return
        traceback.print_exc()
        code = 1
    finally:
        os._exit(code)


def _run_worker(argv, fds, inherited, launcher_pid, prctl) -> None:  # pragma: no cover
    """A forked worker: start as a fresh ``repro serve`` would, run
    ``cli.main(argv)`` and exit with its code, never returning into the
    launcher's loop."""
    code = 1
    try:
        if prctl is not None:
            prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != launcher_pid:  # the launcher died before prctl
            os._exit(1)
        signal.set_wakeup_fd(-1)
        for signum, handler in inherited.items():
            if handler is signal.SIG_IGN:
                signal.signal(signum, signal.SIG_IGN)
            elif signum == signal.SIGINT:
                signal.signal(signum, signal.default_int_handler)
            else:
                signal.signal(signum, signal.SIG_DFL)
        stdout_fd, stderr_fd = fds
        os.dup2(stdout_fd, 1)
        os.dup2(stderr_fd, 2)
        _close_fds_except(())
        # The inherited sys.stdout may be a wrapper that is not fd 1
        # (e.g. under pytest's capture); open the worker's own.
        sys.stdout = open(1, "w", closefd=False)
        sys.stderr = open(2, "w", buffering=1, errors="backslashreplace",
                          closefd=False)
        if faulthandler.is_enabled():
            faulthandler.enable(sys.stderr)
        _forget_inherited_state()
        from ..cli import main

        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except BaseException:  # noqa: BLE001 - reported, then the worker exits
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


# ----------------------------------------------------------------------
# The caller's side
# ----------------------------------------------------------------------
@dataclass
class ShardWorker:
    """A shard worker process and its serving URL."""

    spec: ShardSpec
    process: WorkerProcess
    url: str
    replica: int = 0
    #: Where the worker's stderr is captured (a temp file, so a chatty
    #: long-running worker can never deadlock on a full pipe); read
    #: back into :class:`WorkerStartupError` when startup fails.
    stderr_path: Path | None = None
    #: The ``launcher`` / ``cache_size`` / ``workers`` /
    #: ``startup_timeout`` this worker was spawned with; a restart passes
    #: them to :func:`spawn_one_worker` again, so they are stated once.
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
    process,
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
    launcher: WorkerLauncher,
    cache_size: int | None,
    workers: int | None,
    startup_timeout: float,
) -> ShardWorker:
    """Start one worker process; :func:`_await_serving` reads its URL."""
    argv = ["serve", "--index", str(directory / spec.path), "--port", "0",
            "--mmap"]
    if cache_size is not None:
        argv += ["--cache-size", str(cache_size)]
    if workers is not None:
        argv += ["--workers", str(workers)]
    stderr_fd, stderr_name = tempfile.mkstemp(
        prefix=f"repro-shard-{spec.shard_id:03d}-", suffix=".stderr"
    )
    read_fd, write_fd = os.pipe()
    try:
        process = launcher.launch(argv, stdout=write_fd, stderr=stderr_fd)
    except BaseException:
        os.close(read_fd)
        Path(stderr_name).unlink(missing_ok=True)
        raise
    finally:
        os.close(write_fd)
        os.close(stderr_fd)
    process.stdout = open(read_fd)
    return ShardWorker(
        spec=spec,
        process=process,
        url="",
        replica=replica,
        stderr_path=Path(stderr_name),
        spawn_settings={
            "launcher": launcher,
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
    launcher: WorkerLauncher,
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
    ``SERVING`` line, or when ``launcher`` is gone; the process is
    reaped before the error leaves.
    """
    worker = _launch_worker(
        Path(directory),
        spec,
        replica,
        launcher=launcher,
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
    launcher: WorkerLauncher,
    cache_size: int | None = None,
    workers: int | None = None,
    startup_timeout: float = 60.0,
    replicas: int | None = None,
) -> list[ShardWorker]:
    """Start ``replicas`` ``repro serve`` processes per shard of ``plan``.

    Each worker is forked by ``launcher``, maps its shard's compact
    snapshot (``--mmap``; replicas of a shard share the file, and the
    page cache deduplicates the mapping) and binds an ephemeral port;
    the returned :class:`ShardWorker`\\ s carry the parsed URLs,
    shard-major (``[s0r0, s0r1, ..., s1r0, ...]``).  ``replicas=None``
    uses the plan's recorded count.  All processes launch before any
    ``SERVING`` line is awaited, so startup latency is one worker's, not
    the sum.  On any startup failure — including a worker that dies
    before serving, which raises :class:`~repro.errors.WorkerStartupError`
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
                        launcher=launcher,
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
