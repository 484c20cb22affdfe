#!/usr/bin/env python
"""CI smoke for the fault-tolerance layer: fixed-seed kill + corrupt plans.

Runs the acceptance scenarios of the robustness layer end to end with a
deterministic :class:`repro.faults.FaultPlan` — activated through the
``REPRO_FAULTS`` environment variable exactly as an operator would —
and asserts *exactness*, not just survival:

``exactness``
    One injected worker kill (single-trigger, ledger-arbitrated) plus
    one persistent poison query: the run must complete, quarantine
    exactly the poison query, and return byte-identical results to a
    clean serial run on every surviving query.
``corrupt``
    A corrupt-bytes fault on snapshot read must surface as a typed
    :class:`~repro.PersistenceError` naming the corrupt section (never
    a decoder error), and rotation fallback must recover the previous
    intact snapshot.
``resume``
    A kill with recovery disabled aborts the run but leaves an atomic
    checkpoint; re-running with ``resume=True`` must produce the same
    ``AggregateRun`` pairs as an uninterrupted run (workload and
    self-join).

Usage::

    PYTHONPATH=src python benchmarks/smoke_faults.py            # all
    PYTHONPATH=src python benchmarks/smoke_faults.py --only resume

Exit code 0 = every scenario exact; any assertion failure is fatal.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ensure_importable() -> None:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(ROOT / "src"))


SEED = 20160626
NUM_DOCS = 8
DOC_TOKENS = 120
VOCAB = 70
KILL_POSITION = 3
POISON_POSITION = 6
# The resume scenario kills inside the third chunk (positions {4,5} at
# two queries a chunk): it is only dispatched after an earlier chunk
# completed and was checkpointed, so the resumed run provably skips work.
RESUME_KILL_POSITION = 5
# The pool's constants for every drill: NUM_DOCS queries over two
# workers at two chunks a worker is two queries a chunk, and a failed
# chunk is re-dispatched at once.
POOL_CONSTANTS = {"CHUNKS_PER_WORKER": 2, "RETRY_BACKOFF": 0.0}


def build_workload():
    from repro import SearchParams
    from repro.core.pkwise import PKWiseSearcher
    from repro.corpus import DocumentCollection

    rng = random.Random(SEED)
    vocab = [f"w{i}" for i in range(VOCAB)]
    data = DocumentCollection()
    for _ in range(NUM_DOCS):
        data.add_tokens([rng.choice(vocab) for _ in range(DOC_TOKENS)])
    params = SearchParams(w=12, tau=3, k_max=2)
    searcher = PKWiseSearcher(data, params)
    queries = [data[i] for i in range(len(data))]
    return data, params, searcher, queries


def pool_constants(**overrides):
    """Patch :mod:`repro.parallel.executor`'s constants for one drill."""
    from unittest import mock

    return mock.patch.multiple(
        "repro.parallel.executor", **POOL_CONSTANTS, **overrides
    )


def env_activated_plan(specs, workdir: Path, seed: int = SEED):
    """Install a plan the way production would: via ``REPRO_FAULTS``.

    Writes the plan JSON, points the environment variable at it, and
    re-arms the lazy env check so the *next* injection loads it —
    proving the whole file → env → activation path, not just
    ``install_plan``.
    """
    from repro import faults
    from repro.faults import FaultPlan

    workdir.mkdir(parents=True, exist_ok=True)
    plan = FaultPlan(specs, seed=seed, ledger=workdir / "ledger")
    path = workdir / "plan.json"
    plan.to_json_file(path)
    os.environ[faults.PLAN_ENV_VAR] = str(path)
    faults.clear_plan()


def deactivate():
    from repro import faults

    os.environ.pop(faults.PLAN_ENV_VAR, None)
    faults.clear_plan()


def scenario_exactness() -> None:
    from repro.eval.harness import serial_run
    from repro.faults import FaultSpec
    from repro.parallel import ParallelExecutor

    _data, _params, searcher, queries = build_workload()
    clean = serial_run(searcher, queries)
    with tempfile.TemporaryDirectory(prefix="smoke-faults-") as workdir:
        env_activated_plan(
            [
                FaultSpec(point="parallel.worker.query", kind="kill",
                          match={"position": KILL_POSITION}, max_triggers=1),
                FaultSpec(point="parallel.worker.query", kind="raise",
                          match={"position": POISON_POSITION},
                          message="poison"),
            ],
            Path(workdir),
        )
        try:
            with pool_constants():
                run = ParallelExecutor(jobs=2).run_workload(searcher, queries)
        finally:
            deactivate()

    assert [f.position for f in run.failures] == [POISON_POSITION], (
        f"expected exactly the poison query quarantined, got "
        f"{[(f.position, f.error_type) for f in run.failures]}"
    )
    assert run.failures[0].error_type == "FaultInjectionError"
    assert run.recovery is not None and run.recovery.pool_restarts >= 1, (
        "the injected kill should have restarted the pool"
    )
    surviving = {
        key: value
        for key, value in clean.results_by_query.items()
        if key != POISON_POSITION
    }
    assert dict(run.results_by_query) == surviving, (
        "surviving results drifted from the clean serial run"
    )
    print(
        f"exactness: ok (quarantined={len(run.failures)}, "
        f"pool_restarts={run.recovery.pool_restarts}, "
        f"surviving={len(run.results_by_query)})",
        file=sys.stderr,
    )


def scenario_corrupt() -> None:
    from repro import PersistenceError
    from repro.faults import FaultSpec
    from repro.persistence import load_bundle, save_searcher

    _data, _params, searcher, _queries = build_workload()
    with tempfile.TemporaryDirectory(prefix="smoke-faults-") as workdir:
        workdir = Path(workdir)
        path = workdir / "index.idx"
        save_searcher(searcher, path, rotate=1)
        save_searcher(searcher, path, rotate=1)  # index.idx.1 now intact
        env_activated_plan(
            [
                FaultSpec(point="persistence.read", kind="corrupt",
                          match={"section": "order"}, max_triggers=1),
            ],
            workdir,
        )
        try:
            try:
                load_bundle(path, fallback=False)
            except PersistenceError as exc:
                assert "section 'order'" in str(exc), (
                    f"corruption error must name the section, got: {exc}"
                )
            else:
                raise AssertionError(
                    "corrupted snapshot loaded without a typed error"
                )
        finally:
            deactivate()

        # Rotation fallback: scribble over the primary on disk and load
        # with fallback enabled — the intact .1 generation must serve.
        path.write_bytes(b"crash left garbage here")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            recovered = load_bundle(path).searcher
        assert recovered.params == searcher.params
    print("corrupt: ok (typed error named the section; "
          "rotation fallback recovered)", file=sys.stderr)


def scenario_resume() -> None:
    from repro import local_similarity_self_join
    from repro.errors import WorkerCrashError
    from repro.eval.harness import serial_run
    from repro.faults import FaultSpec
    from repro.parallel import ParallelExecutor

    data, params, searcher, queries = build_workload()
    clean = serial_run(searcher, queries)
    with (tempfile.TemporaryDirectory(prefix="smoke-faults-") as workdir,
          pool_constants(MAX_POOL_RESTARTS=0)):
        workdir = Path(workdir)
        checkpoint = workdir / "run.ckpt"
        env_activated_plan(
            [
                FaultSpec(point="parallel.worker.query", kind="kill",
                          match={"position": RESUME_KILL_POSITION},
                          max_triggers=1),
            ],
            workdir,
        )
        executor = ParallelExecutor(jobs=2)
        try:
            try:
                executor.run_workload(searcher, queries,
                                      checkpoint=checkpoint)
            except WorkerCrashError:
                pass
            else:
                raise AssertionError(
                    "kill with MAX_POOL_RESTARTS=0 should abort the run"
                )
        finally:
            deactivate()
        assert checkpoint.exists(), "aborted run must leave its checkpoint"

        resumed = executor.run_workload(
            searcher, queries, checkpoint=checkpoint, resume=True
        )
        assert resumed.results_by_query == clean.results_by_query, (
            "resumed run drifted from the uninterrupted serial run"
        )
        assert resumed.recovery is not None
        assert resumed.recovery.resumed_items > 0
        assert not checkpoint.exists(), (
            "checkpoint should be removed after a successful resume"
        )
        workload_resumed = resumed.recovery.resumed_items

        # Same story for the self-join grain.
        join_expected = local_similarity_self_join(data, params)
        join_checkpoint = workdir / "join.ckpt"
        env_activated_plan(
            [
                FaultSpec(point="parallel.worker.document", kind="kill",
                          match={"doc_id": 4}, max_triggers=1),
            ],
            workdir / "join-faults",
        )
        try:
            try:
                executor.self_join(data, params, checkpoint=join_checkpoint)
            except WorkerCrashError:
                pass
            else:
                raise AssertionError("self-join kill should abort the run")
        finally:
            deactivate()
        assert join_checkpoint.exists()
        join_resumed = executor.self_join(
            data, params, checkpoint=join_checkpoint, resume=True
        )
        assert join_resumed == join_expected, (
            "resumed self-join drifted from the uninterrupted run"
        )
        assert not join_checkpoint.exists()
    print(
        f"resume: ok (workload resumed_items={workload_resumed}, "
        f"selfjoin pairs={len(join_resumed)})",
        file=sys.stderr,
    )


SCENARIOS = {
    "exactness": scenario_exactness,
    "corrupt": scenario_corrupt,
    "resume": scenario_resume,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--only", choices=["all", *SCENARIOS], default="all",
                        help="run one scenario (default: all)")
    args = parser.parse_args(argv)
    _ensure_importable()

    names = list(SCENARIOS) if args.only == "all" else [args.only]
    for name in names:
        SCENARIOS[name]()
    print(f"fault smoke passed ({', '.join(names)})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
