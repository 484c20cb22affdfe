"""Tests for replica failover (ShardRouter) and ShardSupervisor healing.

Three layers, progressively less faked:

* ``TestReplicaFailover`` / ``TestRouterReplicaAdmin`` — the real
  router over in-process replicas, with faults injected at the named
  scatter/failover points.
* ``TestSupervisorStateMachine`` — the real supervisor driven with
  fake processes, a fake router, and a fake clock, so every transition
  (ok → dead → restarting → readmitted / quarantined) is exercised
  deterministically, including the generation-consistency gate.
* ``TestWorkerStartup`` / ``TestWorkerLauncher`` /
  ``TestEndToEndSelfHealing`` — real processes: fail-fast startup
  diagnostics, the launcher's lifecycle (a SIGKILLed worker's status,
  a router or launcher killed outright, what a forked worker inherits
  from a ``--faults --trace`` router), and the acceptance scenario
  (SIGKILL one of R=2 workers under a live query stream → zero failed
  queries, pair-identical results, automatic re-admission).
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import ConfigurationError, Index, SearchParams, faults
from repro.errors import WorkerStartupError
from repro.faults import FaultPlan, FaultSpec
from repro.persistence import generation_name
from repro.service.client import remote_metrics, remote_search
from repro.service.plan import ShardPlan, ShardSpec
import repro.service.supervisor as supervisor_module
import repro.service.workers as workers_module
from repro.service.router import ShardRouter
from repro.service.supervisor import (
    STATE_DEAD,
    STATE_OK,
    STATE_QUARANTINED,
    ShardSupervisor,
)
from repro.service.workers import (
    ShardWorker,
    WorkerLauncher,
    _read_serving_line,
    backends_for_workers,
    spawn_one_worker,
    spawn_shard_workers,
    stop_shard_workers,
)

from .conftest import FakeClock, expected_pairs

PARAMS = SearchParams(w=10, tau=2, k_max=3)


@pytest.fixture
def launcher():
    with WorkerLauncher.start() as launcher:
        yield launcher


def counters(registry) -> dict:
    return registry.snapshot()["counters"]


# ----------------------------------------------------------------------
class TestReplicaFailover:
    def test_single_replica_failure_is_invisible(self, small_corpus, query):
        # Replica 0 of shard 0 fails on every attempt; with R=2 the
        # router fails over to replica 1 and the caller sees a full,
        # non-partial answer — zero QueryFailures.
        single = sorted(expected_pairs(small_corpus, query, PARAMS.w, PARAMS.tau))
        with ShardRouter.local(
            small_corpus, PARAMS, shards=2, replicas=2
        ) as router:
            faults.install_plan(
                FaultPlan(
                    [
                        FaultSpec(
                            point="shards.scatter",
                            kind="raise",
                            match={"shard": 0, "replica": 0},
                        )
                    ]
                )
            )
            response = router.search(query)
            assert not response.partial
            assert response.failures == []
            assert list(response.pairs) == single
            metrics = router.metrics_snapshot()["metrics"]["counters"]
            assert metrics["router.failovers"] >= 1
            assert metrics["router.replica_failures"] >= 1
            assert metrics["router.replica_failures.shard000.r0"] >= 1

    def test_failed_replica_is_deprioritized_next_query(
        self, small_corpus, query
    ):
        # Query 1 pays one failover; afterwards the down marker moves
        # the bad replica to the back of the preference order, so query
        # 2 starts on the healthy sibling and pays nothing.
        with ShardRouter.local(
            small_corpus, PARAMS, shards=2, replicas=2
        ) as router:
            faults.install_plan(
                FaultPlan(
                    [
                        FaultSpec(
                            point="shards.scatter",
                            kind="raise",
                            match={"shard": 0, "replica": 0},
                            max_triggers=1,
                        )
                    ]
                )
            )
            assert not router.search(query).partial
            failovers_after_first = router.metrics_snapshot()["metrics"][
                "counters"
            ]["router.failovers"]
            assert failovers_after_first == 1
            assert not router.search(query).partial
            assert (
                router.metrics_snapshot()["metrics"]["counters"][
                    "router.failovers"
                ]
                == failovers_after_first
            )

    def test_all_replicas_failed_reports_shard_failure(
        self, small_corpus, query
    ):
        single = sorted(expected_pairs(small_corpus, query, PARAMS.w, PARAMS.tau))
        with ShardRouter.local(
            small_corpus, PARAMS, shards=2, replicas=2
        ) as router:
            lo, hi = router.backends[1].doc_lo, router.backends[1].doc_hi
            faults.install_plan(
                FaultPlan(
                    [
                        FaultSpec(
                            point="shards.scatter",
                            kind="raise",
                            match={"shard": 1},
                        )
                    ]
                )
            )
            response = router.search(query)
            assert response.partial
            assert len(response.failures) == 1
            failure = response.failures[0]
            assert failure.position == 1
            assert failure.attempts == 2  # primary + failover, both tried
            survivors = [tuple(p) for p in single if not lo <= p[0] < hi]
            assert [tuple(p) for p in response.pairs] == survivors

    def test_failover_fault_point_fires(self, small_corpus, query):
        # Kill the primary, then make the failover attempt itself die
        # at the shards.failover point: the shard must fail with the
        # injected failover error, proving the point sits on the path.
        with ShardRouter.local(
            small_corpus, PARAMS, shards=2, replicas=2
        ) as router:
            faults.install_plan(
                FaultPlan(
                    [
                        FaultSpec(
                            point="shards.scatter",
                            kind="raise",
                            match={"shard": 0, "replica": 0},
                        ),
                        FaultSpec(
                            point="shards.failover",
                            kind="raise",
                            match={"shard": 0},
                        ),
                    ]
                )
            )
            response = router.search(query)
            assert response.partial
            assert response.failures[0].position == 0
            assert response.failures[0].error_type == "FaultInjectionError"


# ----------------------------------------------------------------------
class TestRouterReplicaAdmin:
    def test_backends_property_returns_primaries(self, small_corpus):
        with ShardRouter.local(
            small_corpus, PARAMS, shards=2, replicas=2
        ) as router:
            assert router.num_shards == 2
            assert len(router.backends) == 2
            assert [b.replica for b in router.backends] == [0, 0]
            assert [len(rset) for rset in router.replica_sets] == [2, 2]

    def test_mark_and_readmit_roundtrip(self, small_corpus):
        with ShardRouter.local(
            small_corpus, PARAMS, shards=2, replicas=2
        ) as router:
            rset = router.replica_sets[0]
            router.mark_replica_down(0, 0)
            assert rset.down == {0}
            assert [b.replica for b in rset.preference_order()] == [1, 0]
            router.readmit_replica(0, 0)
            assert rset.down == set()
            assert [b.replica for b in rset.preference_order()] == [0, 1]

    def test_replace_replica_validates_range_and_id(self, small_corpus):
        with ShardRouter.local(
            small_corpus, PARAMS, shards=2, replicas=2
        ) as router:
            wrong_range = router.replica_sets[1].replicas[0]
            with pytest.raises(ConfigurationError):
                router.replace_replica(0, 0, wrong_range)
            with pytest.raises(ConfigurationError):
                router.replace_replica(99, 0, router.backends[0])

    def test_mismatched_replica_ranges_rejected(self, small_corpus):
        with ShardRouter.local(small_corpus, PARAMS, shards=2) as router:
            a, b = router.backends
            # Same shard_id but different ranges cannot be replicas.
            b.shard_id = a.shard_id
            with pytest.raises(ConfigurationError):
                ShardRouter([a, b])

    def test_healthz_tracks_replica_health(self, small_corpus):
        with ShardRouter.local(
            small_corpus, PARAMS, shards=2, replicas=2
        ) as router:
            assert router.healthz()["status"] == "ok"
            # One replica of shard 0 dies: shard degraded, router
            # degraded, every query still fully answerable.
            router.replica_sets[0].replicas[0].service.close()
            health = router.healthz()
            assert health["status"] == "degraded"
            shard0 = health["shards"][0]
            assert shard0["status"] == "degraded"
            assert shard0["replicas_ok"] == 1
            assert shard0["num_replicas"] == 2
            # Its sibling dies too: the shard is down, the router stays
            # degraded (shard 1 still answers partial results).
            router.replica_sets[0].replicas[1].service.close()
            health = router.healthz()
            assert health["status"] == "degraded"
            assert health["shards"][0]["status"] == "down"
            assert health["shards_ok"] == 1


# ----------------------------------------------------------------------
# Supervisor state machine with fakes
# ----------------------------------------------------------------------
class FakeProcess:
    """subprocess.Popen stand-in with a controllable liveness flag."""

    _next_pid = 40_000

    def __init__(self) -> None:
        FakeProcess._next_pid += 1
        self.pid = FakeProcess._next_pid
        self.returncode: int | None = None
        self.stdout = None

    def poll(self) -> int | None:
        return self.returncode

    def wait(self, timeout: float | None = None) -> int:
        if self.returncode is None:
            raise subprocess.TimeoutExpired("fake", timeout or 0.0)
        return self.returncode

    def die(self, code: int = -9) -> None:
        self.returncode = code

    def terminate(self) -> None:
        self.die(-15)

    def kill(self) -> None:
        self.die(-9)


class FakeRouter:
    """Records the replica-admin calls the supervisor makes."""

    def __init__(self) -> None:
        self.down: list[tuple[int, int]] = []
        self.readmitted: list[tuple[int, int]] = []
        self.replaced: list[tuple[int, int, object]] = []
        self.supervisor = None

    def attach_supervisor(self, supervisor) -> None:
        self.supervisor = supervisor

    def mark_replica_down(self, shard_id: int, replica: int) -> None:
        self.down.append((shard_id, replica))

    def replace_replica(self, shard_id: int, replica: int, backend) -> None:
        self.replaced.append((shard_id, replica, backend))

    def readmit_replica(self, shard_id: int, replica: int) -> None:
        self.readmitted.append((shard_id, replica))


def make_spec(shard_id: int = 0, generation: int = 1) -> ShardSpec:
    return ShardSpec(
        shard_id=shard_id,
        doc_lo=0,
        doc_hi=3,
        path=generation_name(f"shard-{shard_id:03d}", generation),
        generation=generation,
    )


def make_worker(spec: ShardSpec, replica: int = 0) -> ShardWorker:
    return ShardWorker(
        spec=spec,
        process=FakeProcess(),
        url=f"http://fake.invalid/{spec.shard_id}/{replica}",
        replica=replica,
    )


class TestSupervisorStateMachine:
    @pytest.fixture(autouse=True)
    def _quarantine_settings(self, monkeypatch):
        """A short crash streak and round backoff numbers to assert on."""
        monkeypatch.setattr(supervisor_module, "MAX_CRASH_STREAK", 2)
        monkeypatch.setattr(supervisor_module, "BACKOFF_BASE", 1.0)
        monkeypatch.setattr(supervisor_module, "BACKOFF_CAP", 8.0)

    def make_supervisor(self, workers, **kwargs):
        router = FakeRouter()
        clock = FakeClock()
        spawned: list[ShardWorker] = []

        def spawn(spec, replica):
            worker = make_worker(spec, replica)
            spawned.append(worker)
            return worker

        defaults = dict(
            spawn_worker=spawn,
            make_backend=lambda worker: ("backend", worker.url),
            probe=lambda worker: {"status": "ok"},
            clock=clock,
        )
        defaults.update(kwargs)
        supervisor = ShardSupervisor(router, workers, **defaults)
        return supervisor, router, clock, spawned

    def test_healthy_sweep_is_a_no_op(self):
        worker = make_worker(make_spec())
        supervisor, router, _clock, spawned = self.make_supervisor([worker])
        supervisor.check_once()
        assert router.down == []
        assert spawned == []
        status = supervisor.status()
        assert [r["state"] for r in status["replicas"]] == [STATE_OK]
        assert counters(supervisor.metrics_registry) == {}

    def test_death_restart_readmit_cycle(self):
        workers = [make_worker(make_spec(), 0), make_worker(make_spec(), 1)]
        supervisor, router, _clock, spawned = self.make_supervisor(workers)
        workers[0].process.die(-9)
        supervisor.check_once()
        assert router.down == [(0, 0)]
        assert len(spawned) == 1
        assert router.replaced[0][:2] == (0, 0)
        assert router.readmitted == [(0, 0)]
        status = supervisor.status()
        by_replica = {r["replica"]: r for r in status["replicas"]}
        assert by_replica[0]["state"] == STATE_OK
        assert by_replica[0]["restarts"] == 1
        assert by_replica[1]["restarts"] == 0
        metrics = counters(supervisor.metrics_registry)
        assert metrics["supervisor.deaths"] == 1
        assert metrics["supervisor.restarts"] == 1
        assert metrics["supervisor.readmits"] == 1
        # The supervisor's worker list tracks the replacement.
        assert supervisor.workers[0] is spawned[0]

    def test_probe_failure_counts_as_death(self):
        worker = make_worker(make_spec())
        sick = {worker.pid}

        def probe(candidate):
            if candidate.pid in sick:
                raise OSError("connection refused")
            return {"status": "ok"}

        supervisor, router, _clock, spawned = self.make_supervisor(
            [worker], probe=probe
        )
        supervisor.check_once()
        assert router.down == [(0, 0)]
        assert len(spawned) == 1
        assert counters(supervisor.metrics_registry)["supervisor.deaths"] == 1

    def test_unhealthy_replacement_is_not_readmitted(self):
        worker = make_worker(make_spec())
        health: dict[str, str] = {}

        def probe(candidate):
            return {"status": health.get(candidate.url, "ok")}

        def spawn(spec, replica):
            replacement = make_worker(spec, replica)
            health[replacement.url] = "down"
            return replacement

        supervisor, router, _clock, _ = self.make_supervisor(
            [worker], probe=probe, spawn_worker=spawn
        )
        worker.process.die(-9)
        supervisor.check_once()
        assert router.replaced == []
        assert router.readmitted == []
        metrics = counters(supervisor.metrics_registry)
        assert metrics["supervisor.readmit_failures"] == 1
        record = supervisor.status()["replicas"][0]
        assert record["state"] in (STATE_DEAD, STATE_QUARANTINED)

    def test_crash_loop_quarantines_with_exponential_backoff(self):
        worker = make_worker(make_spec())

        def spawn(spec, replica):
            raise WorkerStartupError("snapshot gone", returncode=3)

        supervisor, router, clock, _ = self.make_supervisor(
            [worker], spawn_worker=spawn
        )
        worker.process.die(-9)
        supervisor.check_once()  # death + failed restart: streak 2
        supervisor.check_once()  # failed restart: streak 3 > 2 → quarantine
        status = supervisor.status()["replicas"][0]
        assert status["state"] == STATE_QUARANTINED
        assert status["retry_after"] == pytest.approx(1.0)  # base * 2^0
        assert "quarantined" in status["last_error"]
        metrics = counters(supervisor.metrics_registry)
        assert metrics["supervisor.quarantines"] == 1
        # Inside the backoff window nothing happens.
        clock.advance(0.5)
        supervisor.check_once()
        assert counters(supervisor.metrics_registry)[
            "supervisor.restart_failures"
        ] == 2
        # Past it, one more attempt — which fails and doubles the backoff.
        clock.advance(1.0)
        supervisor.check_once()
        status = supervisor.status()["replicas"][0]
        assert status["state"] == STATE_QUARANTINED
        assert status["retry_after"] == pytest.approx(2.0)  # base * 2^1
        assert counters(supervisor.metrics_registry)[
            "supervisor.quarantines"
        ] == 2

    def test_recovery_after_quarantine(self):
        worker = make_worker(make_spec())
        broken = {"yes": True}

        def spawn(spec, replica):
            if broken["yes"]:
                raise WorkerStartupError("still broken")
            return make_worker(spec, replica)

        supervisor, router, clock, _ = self.make_supervisor(
            [worker], spawn_worker=spawn
        )
        worker.process.die(-9)
        supervisor.check_once()
        supervisor.check_once()
        assert supervisor.status()["replicas"][0]["state"] == STATE_QUARANTINED
        broken["yes"] = False
        clock.advance(10.0)
        supervisor.check_once()
        record = supervisor.status()["replicas"][0]
        assert record["state"] == STATE_OK
        assert router.readmitted == [(0, 0)]

    def test_stale_generation_is_never_readmitted(self, tmp_path):
        # The manifest has moved to generation 2 (a rebuilt plan), but
        # the respawned worker reports generation 1: re-admitting it
        # would serve stale pairs from one replica, so the supervisor
        # must refuse, kill it, and retry with the current spec.
        current = make_spec(generation=2)
        ShardPlan(
            shards=(current,),
            num_documents=3,
            generation=2,
            params={},
            replicas=2,
        ).save(tmp_path)
        worker = make_worker(make_spec(generation=1))
        stale = {"yes": True}

        def spawn(spec, replica):
            if stale["yes"]:
                return make_worker(make_spec(generation=1), replica)
            return make_worker(spec, replica)

        supervisor, router, _clock, _ = self.make_supervisor(
            [worker], spawn_worker=spawn, directory=tmp_path
        )
        worker.process.die(-9)
        supervisor.check_once()
        assert router.readmitted == []
        metrics = counters(supervisor.metrics_registry)
        assert metrics["supervisor.readmit_failures"] == 1
        record = supervisor.status()["replicas"][0]
        assert "generation" in record["last_error"]
        # Once the spawn honors the manifest spec, healing completes.
        stale["yes"] = False
        supervisor.check_once()
        record = supervisor.status()["replicas"][0]
        assert record["state"] == STATE_OK
        assert router.readmitted == [(0, 0)]
        assert supervisor.workers[0].spec.generation == 2

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_readmitted_backend_keeps_startup_retry_budget(self, replicas):
        # One worker → backend rule: the backend a healed replica gets
        # carries the retry budget start-up gave the one it replaces.
        workers = [make_worker(make_spec(), r) for r in range(replicas)]
        at_startup = backends_for_workers(workers)
        supervisor, router, _clock, _ = self.make_supervisor(
            workers, make_backend=None
        )
        workers[0].process.die(-9)
        supervisor.check_once()
        (_, _, healed), = router.replaced
        assert healed._client.retries == at_startup[0]._client.retries
        assert healed._client.retries == (2 if replicas == 1 else 0)

    def test_supervisor_fault_points_fire(self, monkeypatch):
        worker = make_worker(make_spec())
        # Generous streak budget: the two injected failures must not
        # tip the replica into quarantine before the healing sweep.
        monkeypatch.setattr(supervisor_module, "MAX_CRASH_STREAK", 5)
        supervisor, router, _clock, spawned = self.make_supervisor([worker])
        worker.process.die(-9)
        faults.install_plan(
            FaultPlan(
                [FaultSpec(point="supervisor.restart", kind="raise")]
            )
        )
        supervisor.check_once()
        assert spawned == []
        assert counters(supervisor.metrics_registry)[
            "supervisor.restart_failures"
        ] == 1
        faults.install_plan(
            FaultPlan(
                [FaultSpec(point="supervisor.readmit", kind="raise")]
            )
        )
        supervisor.check_once()
        assert len(spawned) == 1
        assert router.readmitted == []
        assert counters(supervisor.metrics_registry)[
            "supervisor.readmit_failures"
        ] == 1
        faults.clear_plan()
        supervisor.check_once()
        assert router.readmitted == [(0, 0)]
        assert supervisor.status()["replicas"][0]["state"] == STATE_OK


# ----------------------------------------------------------------------
class TestWorkerStartup:
    def test_dead_worker_fails_fast_with_stderr(self, tmp_path):
        stderr_path = tmp_path / "worker.stderr"
        stderr_path.write_text("")
        with stderr_path.open("w") as stderr:
            process = subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    "import sys; sys.stderr.write('boom: no snapshot'); "
                    "sys.exit(3)",
                ],
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
            )
        start = time.monotonic()
        with pytest.raises(WorkerStartupError) as info:
            _read_serving_line(process, 30.0, stderr_path=stderr_path)
        assert time.monotonic() - start < 10.0  # fail fast, not timeout
        assert info.value.returncode == 3
        assert "boom: no snapshot" in info.value.stderr
        process.stdout.close()

    def test_serving_line_parsed_even_if_process_exits_after(self):
        process = subprocess.Popen(
            [sys.executable, "-c", "print('SERVING http://127.0.0.1:1')"],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            url = _read_serving_line(process, 30.0)
            assert url == "http://127.0.0.1:1"
        finally:
            process.wait()
            process.stdout.close()


# ----------------------------------------------------------------------
def _alive(pid: int) -> bool:
    """Running, not a zombie waiting for a parent that may never reap it."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except FileNotFoundError:
        return False
    return re.search(r"^State:\s+Z", status, re.M) is None


def _start_router(index_path, shard_dir, *extra, env=None):
    """``repro serve --shards 2`` as a subprocess; returns the process,
    the launcher pid, ``{worker pid: url}`` and the router's URL."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    router = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--index",
         str(index_path), "--port", "0", "--shards", "2", "--shard-dir",
         str(shard_dir), *extra],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
        env={**os.environ, **(env or {}), "PYTHONPATH": src},
    )
    launcher_pid, workers, url = None, {}, None
    for line in router.stdout:
        fields = line.split()
        if fields[0] == "LAUNCHER":
            launcher_pid = int(fields[1].removeprefix("pid="))
        elif fields[0] == "SHARD":
            workers[int(fields[3].removeprefix("pid="))] = fields[2]
        elif fields[0] == "SERVING":
            url = fields[1]
            break
    assert url is not None, router.stderr.read()
    return router, launcher_pid, workers, url


def _stop_router(router) -> None:
    router.terminate()
    router.wait(timeout=30)
    router.stdout.close()
    router.stderr.close()


def _signal_masks(pid: int) -> dict:
    status = Path(f"/proc/{pid}/status").read_text()
    return dict(re.findall(r"^(Sig(?:Ign|Cgt|Blk)):\s+(\w+)", status, re.M))


class TestWorkerLauncher:
    @pytest.fixture
    def plan_dir(self, small_corpus, tmp_path):
        ShardPlan.build(small_corpus, PARAMS, tmp_path, num_shards=2)
        return tmp_path

    @pytest.fixture
    def index_path(self, small_corpus, tmp_path):
        path = tmp_path / "corpus.idx"
        Index.build(small_corpus, PARAMS).save(path)
        return path

    def test_refused_from_a_process_with_threads(self):
        release = threading.Event()
        bystander = threading.Thread(target=release.wait, name="bystander")
        bystander.start()
        try:
            with pytest.raises(ConfigurationError, match="bystander"):
                WorkerLauncher.start()
        finally:
            release.set()
            bystander.join(timeout=10)
        assert not bystander.is_alive()

    def test_sigkilled_worker_reports_minus_nine(
        self, plan_dir, launcher, monkeypatch
    ):
        workers = spawn_shard_workers(plan_dir, launcher=launcher)
        try:
            victim = workers[0]
            os.kill(victim.pid, signal.SIGKILL)
            assert victim.process.wait(timeout=10) == -signal.SIGKILL
            assert victim.process.returncode == -signal.SIGKILL
            assert workers[1].process.poll() is None
            # The supervisor reads the relayed status as it read Popen's.
            monkeypatch.setattr(supervisor_module, "MAX_CRASH_STREAK", 0)
            supervisor = ShardSupervisor(
                FakeRouter(), workers, probe=lambda worker: {"status": "ok"}
            )
            supervisor.check_once()
            first = supervisor.status()["replicas"][0]
            assert first["state"] == STATE_QUARANTINED
            assert (
                f"worker pid {victim.pid} exited with code -9"
                in first["last_error"]
            )
        finally:
            stop_shard_workers(workers)
        assert all(worker.process.returncode is not None for worker in workers)

    def test_worker_that_cannot_serve_reports_code_and_stderr(
        self, tmp_path, launcher
    ):
        # No snapshot behind the spec: the forked `repro serve` ends in
        # main's exit code, which reaches the caller with its stderr.
        with pytest.raises(WorkerStartupError) as info:
            spawn_one_worker(tmp_path, make_spec(), launcher=launcher)
        assert info.value.returncode == 2
        assert "error:" in info.value.stderr
        assert make_spec().path in info.value.stderr

    def test_router_sigkill_takes_the_launcher_and_workers(
        self, index_path, tmp_path
    ):
        router, launcher_pid, workers, _url = _start_router(
            index_path, tmp_path / "shards"
        )
        pids = [launcher_pid, *workers]
        assert len(workers) == 2 and all(map(_alive, pids))
        os.kill(router.pid, signal.SIGKILL)
        router.wait(timeout=10)
        router.stdout.close()
        router.stderr.close()
        deadline = time.monotonic() + 5.0
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, pids)), [pid for pid in pids if _alive(pid)]

    def test_killed_launcher_fails_the_next_restart(
        self, plan_dir, launcher, monkeypatch
    ):
        workers = spawn_shard_workers(plan_dir, launcher=launcher)
        monkeypatch.setattr(supervisor_module, "MAX_CRASH_STREAK", 1)
        supervisor = ShardSupervisor(
            FakeRouter(), workers, directory=plan_dir,
            probe=lambda worker: {"status": "ok"},
        )
        try:
            os.kill(launcher.pid, signal.SIGKILL)
            # Its workers die with it, and report so through the handle.
            for worker in workers:
                assert worker.process.wait(timeout=10) == -signal.SIGKILL
            with pytest.raises(WorkerStartupError, match="launcher"):
                spawn_one_worker(plan_dir, workers[0].spec, launcher=launcher)
            supervisor.check_once()
            for replica in supervisor.status()["replicas"]:
                assert replica["state"] == STATE_QUARANTINED
                assert "restart failed" in replica["last_error"]
                assert f"launcher (pid {launcher.pid}) is gone" in (
                    replica["last_error"]
                )
            stats = counters(supervisor.metrics_registry)
            assert stats["supervisor.deaths"] == 2
            assert stats["supervisor.restart_failures"] == 2
            assert stats["supervisor.quarantines"] == 2
        finally:
            stop_shard_workers(supervisor.workers)

    def test_worker_starts_as_a_fresh_serve_would(self, index_path, tmp_path):
        # The router runs a --faults plan and a --trace sink; a worker
        # inherits neither, reads REPRO_FAULTS afresh, and holds the
        # signal dispositions and descriptors a fresh `repro serve` has.
        router_plan = tmp_path / "router-plan.json"
        env_plan = tmp_path / "env-plan.json"
        FaultPlan(
            [FaultSpec(point="service.request", kind="raise", max_triggers=1)],
            ledger=tmp_path / "router-ledger",
        ).to_json_file(router_plan)
        FaultPlan(
            [FaultSpec(point="service.request", kind="raise", max_triggers=1)],
            ledger=tmp_path / "env-ledger",
        ).to_json_file(env_plan)
        trace = tmp_path / "router.trace"
        router, launcher_pid, workers, url = _start_router(
            index_path, tmp_path / "shards",
            "--faults", str(router_plan), "--trace", str(trace),
            env={faults.PLAN_ENV_VAR: str(env_plan)},
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        fresh = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--index",
             str(index_path), "--port", "0"],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        try:
            assert fresh.stdout.readline().startswith("SERVING ")
            reply = remote_search(url, "w1 w2 w3 w4 w5 w6 w7 w8 w9 w10 w11")
            assert not reply.get("partial"), reply
            # REPRO_FAULTS fired once, in a worker; the router's plan never.
            claims = list((tmp_path / "env-ledger").iterdir())
            assert len(claims) == 1
            assert int(claims[0].read_text()) in workers
            assert not (tmp_path / "router-ledger").exists()
            for pid, worker_url in workers.items():
                # Its own registry: one completed search, nothing else's.
                counters = remote_metrics(worker_url)["metrics"]["counters"]
                assert counters["service.completed"] == 1, counters
                assert not [name for name in counters
                            if name.startswith(("router.", "supervisor."))]
                assert _signal_masks(pid) == _signal_masks(fresh.pid)
                assert _signal_masks(pid) != _signal_masks(launcher_pid)
                targets = {
                    int(fd): os.readlink(f"/proc/{pid}/fd/{fd}")
                    for fd in os.listdir(f"/proc/{pid}/fd")
                }
                assert str(trace) not in targets.values()
                pipes = [fd for fd, target in targets.items()
                         if target.startswith("pipe:")]
                assert pipes == [1], targets
                unix = {
                    line.split()[6] for line in
                    Path("/proc/net/unix").read_text().splitlines()[1:]
                }
                sockets = [target[len("socket:["):-1]
                           for target in targets.values()
                           if target.startswith("socket:")]
                assert sockets and not unix.intersection(sockets), targets
        finally:
            fresh.terminate()
            fresh.wait(timeout=30)
            fresh.stdout.close()
            _stop_router(router)
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert events and {event["pid"] for event in events} == {router.pid}


# ----------------------------------------------------------------------
class TestEndToEndSelfHealing:
    def test_sigkill_under_load_zero_failures_then_heals(
        self, small_corpus, query, tmp_path, launcher, monkeypatch
    ):
        single = sorted(expected_pairs(small_corpus, query, PARAMS.w, PARAMS.tau))
        assert single
        plan = ShardPlan.build(
            small_corpus, PARAMS, tmp_path, num_shards=2, replicas=2
        )
        monkeypatch.setattr(workers_module, "STARTUP_TIMEOUT", 120.0)
        workers = spawn_shard_workers(tmp_path, plan, launcher=launcher)
        router = None
        supervisor = None
        try:
            router = ShardRouter(
                backends_for_workers(workers),
                small_corpus,
            )
            supervisor = ShardSupervisor(
                router, workers, directory=tmp_path, check_interval=0.2
            ).start()
            assert list(router.search(query).pairs) == single
            victim = workers[0]  # shard 0, replica 0
            os.kill(victim.pid, signal.SIGKILL)
            # Sustained queries across the outage: every one must be
            # complete and pair-identical — the failover hides the kill.
            deadline = time.monotonic() + 60.0
            healed = False
            while time.monotonic() < deadline:
                response = router.search(query)
                assert response.failures == []
                assert list(response.pairs) == single
                states = [
                    (r["state"], r["restarts"])
                    for r in supervisor.status()["replicas"]
                ]
                if all(state == STATE_OK for state, _ in states) and any(
                    restarts >= 1 for _, restarts in states
                ):
                    healed = True
                    break
                time.sleep(0.1)
            assert healed, f"supervisor never healed: {supervisor.status()}"
            # healthz returns to ok with no operator action, and the
            # healed replica serves identical pairs.
            assert router.healthz()["status"] == "ok"
            assert list(router.search(query).pairs) == single
            metrics = router.metrics_snapshot()["metrics"]["counters"]
            assert metrics["supervisor.restarts"] >= 1
            assert metrics["supervisor.readmits"] >= 1
        finally:
            if supervisor is not None:
                supervisor.stop()
            if router is not None:
                router.close()
            stop_shard_workers(
                supervisor.workers if supervisor is not None else workers
            )
