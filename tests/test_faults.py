"""Fault-injection framework + parallel crash recovery.

Covers the :mod:`repro.faults` switchboard itself (spec validation,
deterministic firing, cross-process trigger ledger, plan transport) and
the :class:`~repro.parallel.ParallelExecutor` recovery machinery it
exists to exercise: chunk retries, bisection down to poison queries,
worker-kill pool restarts, and checkpoint/resume — always asserting the
surviving results stay byte-identical to a clean serial run.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import random
import signal
import struct
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import SearchParams, faults, local_similarity_self_join
from repro.core.pkwise import PKWiseSearcher
from repro.corpus import DocumentCollection
from repro.errors import (
    ConfigurationError,
    FaultInjectionError,
    WorkerCrashError,
)
from repro.eval import run_searcher
from repro.eval.harness import serial_run
from repro.faults import FaultPlan, FaultSpec
from repro.obs import configure_tracing, disable_tracing
from repro.parallel import ParallelExecutor, executor as executor_module
from repro.parallel.checkpoint import RunCheckpoint, workload_fingerprint
from repro.parallel.executor import _reap
from repro.persistence import PersistenceError

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")


@pytest.fixture(scope="module")
def workload():
    """Searcher + queries with a matching clean serial baseline."""
    rng = random.Random(4242)
    vocab = [f"w{i}" for i in range(80)]
    data = DocumentCollection()
    for _ in range(9):
        data.add_tokens([vocab[rng.randrange(len(vocab))] for _ in range(110)])
    params = SearchParams(w=12, tau=3, k_max=2)
    searcher = PKWiseSearcher(data, params)
    queries = [data[i] for i in range(len(data))]
    return data, params, searcher, queries


@pytest.fixture(autouse=True)
def _pool_constants(monkeypatch):
    """Two-item chunks for the 9-item workload on two workers (so a
    poison item is bisected out), and retries without backoff."""
    monkeypatch.setattr(executor_module, "CHUNKS_PER_WORKER", 4)
    monkeypatch.setattr(executor_module, "RETRY_BACKOFF", 0.0)


@contextlib.contextmanager
def _deadline(seconds: float):
    """Fail (instead of hanging the suite) when the body outlives ``seconds``.

    POSIX only, main thread only — which is where the fork-gated tests
    that use it run.  The alarm interrupts a blocked pool wait, so the
    executor's own abort path still cleans its workers up.
    """

    def _expired(signum, frame):  # noqa: ARG001 - signal API
        raise TimeoutError(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _kill_one_document() -> FaultSpec:
    return FaultSpec(
        point="parallel.worker.document",
        kind="kill",
        match={"doc_id": 4},
        max_triggers=1,
    )


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultSpec(point="p", kind="explode")

    def test_probability_out_of_range(self):
        with pytest.raises(ConfigurationError, match="probability"):
            FaultSpec(point="p", kind="raise", probability=1.5)

    def test_max_triggers_validated(self):
        with pytest.raises(ConfigurationError, match="max_triggers"):
            FaultSpec(point="p", kind="raise", max_triggers=0)

    def test_match_is_equality_on_context(self):
        spec = FaultSpec(point="p", kind="raise", match={"chunk_index": 2})
        assert spec.matches({"chunk_index": 2, "extra": "ignored"})
        assert not spec.matches({"chunk_index": 3})
        assert not spec.matches({})


class TestFaultPlan:
    def test_disabled_path_is_noop(self):
        # No plan installed: inject is a no-op, inject_bytes is identity.
        faults.inject("anything", key="value")
        data = b"payload"
        assert faults.inject_bytes("anything", data) is data

    def test_raise_carries_point(self):
        faults.install_plan(
            FaultPlan([FaultSpec(point="p", kind="raise", message="boom")])
        )
        with pytest.raises(FaultInjectionError, match="boom") as info:
            faults.inject("p")
        assert info.value.point == "p"

    def test_other_points_unaffected(self):
        faults.install_plan(FaultPlan([FaultSpec(point="p", kind="raise")]))
        faults.inject("q")  # no error

    def test_max_triggers_local(self):
        faults.install_plan(
            FaultPlan([FaultSpec(point="p", kind="raise", max_triggers=2)])
        )
        for _ in range(2):
            with pytest.raises(FaultInjectionError):
                faults.inject("p")
        faults.inject("p")  # exhausted

    def test_ledger_bounds_across_plan_instances(self, tmp_path):
        # Two plan objects sharing one ledger model two racing processes:
        # a single max_triggers=1 firing is claimed by exactly one.
        spec = FaultSpec(point="p", kind="raise", max_triggers=1)
        ledger = tmp_path / "ledger"
        first = FaultPlan([spec], ledger=ledger)
        second = FaultPlan([spec], ledger=ledger)
        with pytest.raises(FaultInjectionError):
            first.fire("p", {})
        second.fire("p", {})  # claim already taken — no error

    def test_probability_deterministic(self):
        plan_a = FaultPlan(
            [FaultSpec(point="p", kind="raise", probability=0.5)], seed=11
        )
        plan_b = FaultPlan(
            [FaultSpec(point="p", kind="raise", probability=0.5)], seed=11
        )

        def firing_pattern(plan):
            pattern = []
            for _ in range(20):
                try:
                    plan.fire("p", {})
                    pattern.append(False)
                except FaultInjectionError:
                    pattern.append(True)
            return pattern

        pattern = firing_pattern(plan_a)
        assert pattern == firing_pattern(plan_b)
        assert any(pattern) and not all(pattern)

    def test_corrupt_bytes_flips_exactly_one_byte(self):
        data = bytes(range(64))
        corrupted = faults.corrupt_bytes(data, seed=3, salt="x")
        assert corrupted != data
        assert len(corrupted) == len(data)
        assert sum(a != b for a, b in zip(data, corrupted)) == 1
        assert corrupted == faults.corrupt_bytes(data, seed=3, salt="x")

    def test_json_roundtrip(self, tmp_path):
        plan = FaultPlan(
            [
                FaultSpec(
                    point="p",
                    kind="delay",
                    match={"chunk_index": 1},
                    max_triggers=3,
                    probability=0.25,
                    delay_seconds=0.5,
                )
            ],
            seed=9,
            ledger=tmp_path / "ledger",
        )
        path = tmp_path / "plan.json"
        plan.to_json_file(path)
        loaded = FaultPlan.from_json_file(path)
        assert loaded.to_dict() == plan.to_dict()

    def test_env_var_activation(self, tmp_path, monkeypatch):
        path = tmp_path / "plan.json"
        FaultPlan([FaultSpec(point="p", kind="raise")]).to_json_file(path)
        monkeypatch.setenv(faults.PLAN_ENV_VAR, str(path))
        faults.clear_plan()  # re-arm the env check
        with pytest.raises(FaultInjectionError):
            faults.inject("p")

    def test_pickled_plan_resets_runtime_counters(self):
        import pickle

        plan = FaultPlan(
            [FaultSpec(point="p", kind="raise", max_triggers=1)]
        )
        with pytest.raises(FaultInjectionError):
            plan.fire("p", {})
        clone = pickle.loads(pickle.dumps(plan))
        with pytest.raises(FaultInjectionError):
            clone.fire("p", {})  # fresh process, fresh local claims


@needs_fork
class TestQuarantine:
    def test_poison_query_quarantined_survivors_exact(self, workload):
        _data, _params, searcher, queries = workload
        clean = serial_run(searcher, queries)
        faults.install_plan(
            FaultPlan(
                [
                    FaultSpec(
                        point="parallel.worker.query",
                        kind="raise",
                        match={"position": 6},
                        message="poison",
                    )
                ]
            )
        )
        run = ParallelExecutor(jobs=2).run_workload(searcher, queries)
        assert len(run.failures) == 1
        failure = run.failures[0]
        assert failure.position == 6
        assert failure.error_type == "FaultInjectionError"
        assert "poison" in failure.error_message
        assert failure.attempts == 3  # 1 try + chunk_retries(2)
        assert run.recovery is not None
        assert run.recovery.chunk_bisections >= 1
        surviving = {
            key: value
            for key, value in clean.results_by_query.items()
            if key != 6
        }
        assert dict(run.results_by_query) == surviving
        snapshot = run.metrics_snapshot()
        assert snapshot["metrics"]["counters"]["run.quarantined_queries"] == 1

    def test_transient_fault_recovers_fully(self, workload, tmp_path):
        _data, _params, searcher, queries = workload
        clean = serial_run(searcher, queries)
        faults.install_plan(
            FaultPlan(
                [
                    FaultSpec(
                        point="parallel.worker.chunk",
                        kind="raise",
                        match={"kind": "search"},
                        max_triggers=1,
                    )
                ],
                ledger=tmp_path / "ledger",
            )
        )
        run = ParallelExecutor(jobs=2).run_workload(searcher, queries)
        assert run.failures == []
        assert run.recovery.chunk_retries >= 1
        assert run.results_by_query == clean.results_by_query

    def test_clean_run_reports_no_recovery(self, workload):
        _data, _params, searcher, queries = workload
        run = ParallelExecutor(jobs=2).run_workload(searcher, queries)
        assert run.failures == []
        assert run.recovery is not None
        assert not any(run.recovery.to_dict().values())
        counters = run.metrics_snapshot()["metrics"]["counters"]
        assert not any(key.startswith("run.recovery") for key in counters)
        assert "run.quarantined_queries" not in counters


class _InterruptingSearcher:
    """Raises KeyboardInterrupt on one query, as a Ctrl-C would."""

    def __init__(self, searcher, interrupt_doc_id: int) -> None:
        self._searcher = searcher
        self._interrupt_doc_id = interrupt_doc_id
        self.params = searcher.params

    def search(self, query):
        if query.doc_id == self._interrupt_doc_id:
            raise KeyboardInterrupt
        return self._searcher.search(query)


@needs_fork
class TestKeyboardInterrupt:
    def test_worker_interrupt_aborts_never_retries(self, workload, tmp_path):
        # Satellite: Ctrl-C must re-raise promptly (no retry cascade,
        # no hang on pool join), flushing the checkpoint on the way out.
        _data, _params, searcher, queries = workload
        wrapped = _InterruptingSearcher(searcher, interrupt_doc_id=4)
        checkpoint = tmp_path / "run.ckpt"
        executor = ParallelExecutor(jobs=2)
        with pytest.raises(KeyboardInterrupt):
            executor.run_workload(wrapped, queries, checkpoint=checkpoint)
        assert checkpoint.exists()  # completed chunks were preserved

    @needs_fork
    def test_abort_joins_a_pool_left_with_half_a_reply(self):
        # A worker that Ctrl-C or terminate() stops part way through its
        # reply leaves a length header with no body in the reply pipe.
        # The pool's manager thread then waits for the body forever, and
        # before the abort path closed its own write end of the pipe, a
        # Ctrl-C'd `repro selfjoin --jobs 2` could hang at exit.
        pool = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"))
        assert pool.submit(abs, -1).result() == 1
        manager = pool._executor_manager_thread
        os.write(pool._result_queue._writer.fileno(), struct.pack("!i", 64))
        with _deadline(20):
            _reap(pool)
        assert not manager.is_alive()

    def test_abort_reaps_workers_forked_under_a_sigterm_handler(
        self, workload, tmp_path
    ):
        # `repro serve` turns SIGTERM into KeyboardInterrupt so that its
        # loops unwind, and a pool forked from such a process inherits
        # the handler.  A worker inside a task then survives SIGTERM and
        # waits for more work, so an abort that sent SIGTERM and joined
        # hung here.  Worker B sleeps in query 2 while A is interrupted
        # on query 4; the abort must still return promptly.
        _data, _params, searcher, queries = workload
        faults.install_plan(
            FaultPlan([FaultSpec(point="parallel.worker.query", kind="delay",
                                 match={"position": 2}, delay_seconds=5.0)])
        )

        def unwind(signum, frame):  # noqa: ARG001 - signal API
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGTERM, unwind)
        try:
            with _deadline(30), pytest.raises(KeyboardInterrupt):
                ParallelExecutor(jobs=2).run_workload(
                    _InterruptingSearcher(searcher, interrupt_doc_id=4), queries
                )
        finally:
            signal.signal(signal.SIGTERM, previous)


@needs_fork
class TestWorkerKill:
    def test_kill_recovers_and_results_exact(self, workload, tmp_path):
        _data, _params, searcher, queries = workload
        clean = serial_run(searcher, queries)
        faults.install_plan(
            FaultPlan(
                [
                    FaultSpec(
                        point="parallel.worker.query",
                        kind="kill",
                        match={"position": 3},
                        max_triggers=1,
                    )
                ],
                ledger=tmp_path / "ledger",
            )
        )
        run = ParallelExecutor(jobs=2).run_workload(searcher, queries)
        assert run.failures == []
        assert run.recovery.pool_restarts >= 1
        assert run.results_by_query == clean.results_by_query
        # Exactness extends to the merged counters, not just the pairs.
        assert (
            run.stats.to_registry().snapshot()["counters"]
            == clean.stats.to_registry().snapshot()["counters"]
        )

    def test_kill_plus_poison_together(self, workload, tmp_path):
        _data, _params, searcher, queries = workload
        clean = serial_run(searcher, queries)
        faults.install_plan(
            FaultPlan(
                [
                    FaultSpec(
                        point="parallel.worker.query",
                        kind="kill",
                        match={"position": 3},
                        max_triggers=1,
                    ),
                    FaultSpec(
                        point="parallel.worker.query",
                        kind="raise",
                        match={"position": 6},
                    ),
                ],
                ledger=tmp_path / "ledger",
            )
        )
        run = ParallelExecutor(jobs=2).run_workload(searcher, queries)
        assert [failure.position for failure in run.failures] == [6]
        assert run.recovery.pool_restarts >= 1
        surviving = {
            key: value
            for key, value in clean.results_by_query.items()
            if key != 6
        }
        assert dict(run.results_by_query) == surviving

    def test_persistent_killer_raises_worker_crash_error(
        self, workload, tmp_path, monkeypatch
    ):
        data, params, searcher, queries = workload
        faults.install_plan(
            FaultPlan(
                [
                    FaultSpec(
                        point="parallel.worker.query",
                        kind="kill",
                        match={"position": 3},
                        max_triggers=1,
                    )
                ],
                ledger=tmp_path / "ledger",
            )
        )
        monkeypatch.setattr(executor_module, "MAX_POOL_RESTARTS", 0)
        executor = ParallelExecutor(jobs=2)
        with pytest.raises(WorkerCrashError) as info:
            executor.run_workload(searcher, queries)
        assert info.value.restarts == 1
        # The self-join spends the same budget under the same supervisor.
        faults.install_plan(
            FaultPlan([_kill_one_document()], ledger=tmp_path / "join")
        )
        with _deadline(60), pytest.raises(WorkerCrashError) as info:
            executor.self_join(data, params)
        assert info.value.restarts == 1

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_kill_during_self_join_recovers(
        self, workload, tmp_path, start_method, monkeypatch
    ):
        # One self-join worker dies under the default restart budget: the
        # join still equals the serial one, and its span says what it cost.
        data, params, _searcher, _queries = workload
        expected = local_similarity_self_join(data, params)
        faults.install_plan(
            FaultPlan([_kill_one_document()], ledger=tmp_path / "ledger")
        )
        trace = tmp_path / "join.jsonl"
        monkeypatch.setattr(executor_module, "START_METHOD", start_method)
        configure_tracing(str(trace))
        try:
            with _deadline(120):
                pairs = ParallelExecutor(jobs=2).self_join(data, params)
        finally:
            disable_tracing()
        assert pairs == expected
        spans = [
            event["attrs"]
            for event in map(json.loads, trace.read_text().splitlines())
            if event["name"] == "parallel.self_join"
        ]
        assert [span["pool_restarts"] for span in spans] == [1]


@needs_fork
class TestCheckpointResume:
    def test_workload_resume_matches_uninterrupted(
        self, workload, tmp_path, monkeypatch
    ):
        _data, _params, searcher, queries = workload
        clean = serial_run(searcher, queries)
        checkpoint = tmp_path / "run.ckpt"
        faults.install_plan(
            FaultPlan(
                [
                    FaultSpec(
                        point="parallel.worker.query",
                        kind="kill",
                        match={"position": 5},
                        max_triggers=1,
                    )
                ],
                ledger=tmp_path / "ledger",
            )
        )
        monkeypatch.setattr(executor_module, "MAX_POOL_RESTARTS", 0)
        executor = ParallelExecutor(jobs=2)
        with pytest.raises(WorkerCrashError, match="resume=True"):
            executor.run_workload(searcher, queries, checkpoint=checkpoint)
        assert checkpoint.exists()
        faults.clear_plan()

        resumed = executor.run_workload(
            searcher, queries, checkpoint=checkpoint, resume=True
        )
        assert resumed.results_by_query == clean.results_by_query
        assert resumed.recovery.resumed_items > 0
        assert (
            resumed.stats.to_registry().snapshot()["counters"]
            == clean.stats.to_registry().snapshot()["counters"]
        )
        assert not checkpoint.exists()  # removed on success

    def test_checkpoint_works_at_jobs_1(self, workload, tmp_path):
        _data, _params, searcher, queries = workload
        clean = serial_run(searcher, queries)
        run = ParallelExecutor(jobs=1).run_workload(
            searcher, queries, checkpoint=tmp_path / "run.ckpt"
        )
        assert run.results_by_query == clean.results_by_query

    def test_resume_without_checkpoint_refused(self, workload):
        data, params, searcher, queries = workload
        refused = pytest.raises(ConfigurationError, match="checkpoint")
        with refused:
            run_searcher(searcher, queries, resume=True)
        with refused:
            ParallelExecutor(jobs=2).run_workload(searcher, queries, resume=True)
        with refused:
            local_similarity_self_join(data, params, resume=True)
        with refused:
            ParallelExecutor(jobs=2).self_join(data, params, resume=True)

    def test_fingerprint_mismatch_rejected(self, workload, tmp_path):
        _data, _params, searcher, queries = workload
        checkpoint = RunCheckpoint(
            tmp_path / "run.ckpt",
            "workload-checkpoint",
            workload_fingerprint(searcher, queries),
        )
        checkpoint.record([0], pid=1, elapsed=0.0, snapshot={}, rows=[])
        checkpoint.flush()
        with pytest.raises(PersistenceError, match="different run"):
            ParallelExecutor(jobs=2).run_workload(
                searcher, queries[:-1], checkpoint=checkpoint.path, resume=True
            )

    def test_selfjoin_exact_or_error_on_poison(self, workload, tmp_path):
        data, params, _searcher, _queries = workload
        faults.install_plan(
            FaultPlan(
                [
                    FaultSpec(
                        point="parallel.worker.document",
                        kind="raise",
                        match={"doc_id": 4},
                    )
                ]
            )
        )
        with pytest.raises(FaultInjectionError):
            ParallelExecutor(jobs=2).self_join(data, params)


class TestSpawnFailureParity:
    """Satellite: worker failure handling must match across start methods."""

    @pytest.mark.parametrize(
        "start_method",
        [
            pytest.param("fork", marks=needs_fork),
            "spawn",
        ],
    )
    def test_quarantine_report_identical(self, workload, start_method, monkeypatch):
        _data, _params, searcher, queries = workload
        clean = serial_run(searcher, queries)
        faults.install_plan(
            FaultPlan(
                [
                    FaultSpec(
                        point="parallel.worker.query",
                        kind="raise",
                        match={"position": 2},
                        message="poison",
                    )
                ]
            )
        )
        monkeypatch.setattr(executor_module, "START_METHOD", start_method)
        run = ParallelExecutor(jobs=2).run_workload(searcher, queries)
        report = [failure.to_dict() for failure in run.failures]
        assert report == [
            {
                "position": 2,
                "query_id": 2,
                "query_name": "doc2",
                "error_type": "FaultInjectionError",
                "error_message": (
                    "injected fault at 'parallel.worker.query' (poison)"
                ),
                "attempts": 3,
            }
        ]
        surviving = {
            key: value
            for key, value in clean.results_by_query.items()
            if key != 2
        }
        assert dict(run.results_by_query) == surviving
