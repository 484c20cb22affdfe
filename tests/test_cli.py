"""Tests for the command-line interface."""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import (
    FaultPlan,
    FaultSpec,
    Index,
    ParallelExecutor,
    SearchParams,
    WorkerCrashError,
    collection_from_directory,
    faults,
)
from repro.cli import main
from repro.errors import RoutingUnavailableError
from repro.persistence import read_envelope
from repro.service import WorkerLauncher


@pytest.fixture
def corpus_dir(tmp_path):
    rng = random.Random(9)
    vocab = [f"word{i}" for i in range(600)]
    directory = tmp_path / "corpus"
    directory.mkdir()
    docs = []
    for index in range(5):
        tokens = [rng.choice(vocab) for _ in range(250)]
        docs.append(tokens)
        (directory / f"doc{index}.txt").write_text(" ".join(tokens))
    # doc5 shares a 90-token passage with doc0.
    shared = docs[0][40:130]
    extra = [rng.choice(vocab) for _ in range(80)] + shared + [
        rng.choice(vocab) for _ in range(80)
    ]
    (directory / "doc5.txt").write_text(" ".join(extra))
    # A query file reusing doc1.
    query_tokens = (
        [rng.choice(vocab) for _ in range(60)]
        + docs[1][10:110]
        + [rng.choice(vocab) for _ in range(60)]
    )
    query_path = tmp_path / "query.txt"
    query_path.write_text(" ".join(query_tokens))
    return directory, query_path


class TestIndexAndSearch:
    def test_roundtrip(self, corpus_dir, tmp_path, capsys):
        directory, query_path = corpus_dir
        index_path = tmp_path / "corpus.idx"
        rc = main(
            [
                "index", "--data", str(directory), "--out", str(index_path),
                "-w", "20", "--tau", "4",
            ]
        )
        assert rc == 0
        assert index_path.exists()

        rc = main(
            ["search", "--index", str(index_path), "--query", str(query_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "doc1.txt" in out

    def test_search_show_text(self, corpus_dir, tmp_path, capsys):
        directory, query_path = corpus_dir
        index_path = tmp_path / "corpus.idx"
        main(["index", "--data", str(directory), "--out", str(index_path),
              "-w", "20", "--tau", "4"])
        rc = main(
            ["search", "--index", str(index_path), "--query", str(query_path),
             "--show-text"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "word" in out  # snippet printed

    def test_search_no_matches_returns_1(self, corpus_dir, tmp_path, capsys):
        directory, _query_path = corpus_dir
        index_path = tmp_path / "corpus.idx"
        main(["index", "--data", str(directory), "--out", str(index_path),
              "-w", "20", "--tau", "4"])
        fresh = tmp_path / "fresh.txt"
        fresh.write_text(" ".join(f"novel{i}" for i in range(100)))
        rc = main(["search", "--index", str(index_path), "--query", str(fresh)])
        assert rc == 1

    def test_greedy_partition_flag(self, corpus_dir, tmp_path):
        directory, _query = corpus_dir
        index_path = tmp_path / "greedy.idx"
        rc = main(
            ["index", "--data", str(directory), "--out", str(index_path),
             "-w", "20", "--tau", "3", "--greedy-partition",
             "--sample-ratio", "0.3"]
        )
        assert rc == 0


class TestFrontDoor:
    """The CLI is a client of ``repro.api``: same bytes, same words."""

    @pytest.mark.parametrize(
        "flags, build_kwargs",
        [
            (["--tau", "3"], {"tau": 3}),
            (
                ["--tau", "1", "--greedy-partition", "--sample-ratio", "0.3"],
                {"tau": 1, "greedy_partition": True, "sample_ratio": 0.3},
            ),
            (["--tau", "3", "--routing", "exact"], {"tau": 3, "routing": "exact"}),
            (
                ["--tau", "3", "--routing", "exact", "--routing-block", "64"],
                {"tau": 3, "routing": {"mode": "exact", "block_tokens": 64}},
            ),
        ],
        ids=["plain", "greedy", "routing-exact", "routing-block"],
    )
    def test_index_writes_what_index_build_saves(
        self, corpus_dir, tmp_path, flags, build_kwargs
    ):
        directory, query_path = corpus_dir
        cli_path, api_path = tmp_path / "cli.idx", tmp_path / "api.idx"
        rc = main(
            ["index", "--data", str(directory), "--out", str(cli_path),
             "-w", "20", *flags]
        )
        assert rc == 0
        Index.build(directory, w=20, **build_kwargs).save(api_path)
        _header, _sections, cli_arrays = read_envelope(cli_path, "pkwise-index")
        _header, _sections, api_arrays = read_envelope(api_path, "pkwise-index")
        assert set(cli_arrays) == set(api_arrays)
        for name, array in api_arrays.items():
            assert np.array_equal(cli_arrays[name], array), name
        text = query_path.read_text()
        with Index.open(cli_path) as from_cli, Index.open(api_path) as from_api:
            assert from_cli.params == from_api.params
            pairs = from_cli.search_text(text).pairs
            assert pairs and pairs == from_api.search_text(text).pairs
            if "--routing-block" in flags:
                tier = from_cli.searcher().routing_fingerprints()
                assert tier.block_len == max(64, 20)

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--index", "x", "--query", "q", "--routing", "approx"],
            ["search", "--index", "x", "--query", "q", "--hamming-budget", "3"],
            ["index", "--data", "d", "--out", "o", "--routing-bands", "2"],
            ["search", "--index", "x", "--query", "q", "--routing-block", "64"],
            ["serve", "--index", "x", "--routing-block", "64"],
            ["query", "--server", "u", "--text", "t", "--routing-block", "64"],
        ],
        ids=["approx", "hamming-budget", "routing-bands", "search-block",
             "serve-block", "query-block"],
    )
    def test_removed_and_misplaced_routing_flags_exit_2(self, argv, capsys):
        # Layout flags live where fingerprints are written (index,
        # ingest); anywhere else they are refused, not ignored.
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_serve_hedge_after_is_gone(self, capsys):
        # Hedging left the router; its flag is refused, not ignored.
        with pytest.raises(SystemExit) as raised:
            main(["serve", "--index", "x", "--shards", "2", "--hedge-after", "1"])
        assert raised.value.code == 2
        assert "unrecognized arguments: --hedge-after 1" in capsys.readouterr().err

    def test_ingest_takes_the_layout_only_when_it_creates(
        self, corpus_dir, tmp_path, capsys
    ):
        directory, _query = corpus_dir
        store = tmp_path / "store"
        create = ["ingest", "--dir", str(store), "--data", str(directory),
                  "-w", "20", "--tau", "4", "--routing-block", "64"]
        assert main(create) == 0
        capsys.readouterr()
        assert main(["ingest", "--dir", str(store), "--routing-block", "32"]) == 2
        assert "--routing-block" in capsys.readouterr().err
        assert main(["ingest", "--dir", str(store), "--routing", "exact"]) == 0
        with Index.open_live(store) as live:
            assert live.params.routing.to_dict() == {
                "mode": "exact", "block_tokens": 64,
            }
            assert len(live.data) == 6

    def test_search_routing_on_unrouted_snapshot_is_one_message(
        self, corpus_dir, tmp_path, capsys
    ):
        directory, query_path = corpus_dir
        index_path = tmp_path / "plain.idx"
        main(["index", "--data", str(directory), "--out", str(index_path),
              "-w", "20", "--tau", "4"])
        with pytest.raises(RoutingUnavailableError) as raised:
            Index.open(index_path, routing="exact")
        capsys.readouterr()
        rc = main(
            ["search", "--index", str(index_path), "--query", str(query_path),
             "--routing", "exact"]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: {raised.value}\n"

    def test_search_jobs_checkpoint_resume_print_the_serial_output(
        self, corpus_dir, tmp_path, capsys
    ):
        directory, query_path = corpus_dir
        index_path = tmp_path / "corpus.idx"
        main(["index", "--data", str(directory), "--out", str(index_path),
              "-w", "20", "--tau", "4"])
        query_paths = [query_path, directory / "doc5.txt"]
        search = ["search", "--index", str(index_path)]
        for path in query_paths:
            search += ["--query", str(path)]
        capsys.readouterr()
        assert main(search) == 0
        expected = capsys.readouterr().out
        assert "doc1.txt" in expected and "doc0.txt" in expected

        checkpoint = tmp_path / "run.ckpt"
        parallel = search + ["--jobs", "2", "--checkpoint", str(checkpoint)]
        assert main(parallel) == 0
        assert capsys.readouterr().out == expected
        assert not checkpoint.exists()  # removed on success
        assert main(search + ["--jobs", "0"]) == 0
        assert capsys.readouterr().out == expected

        # An interrupted run (one worker killed, no restart budget)
        # leaves the checkpoint behind; --resume finishes it.
        with Index.open(index_path) as index:
            queries = [
                index.encode_query(Path(path).read_text(), name=Path(path).name)
                for path in query_paths
            ]
            faults.install_plan(
                FaultPlan(
                    [
                        FaultSpec(
                            point="parallel.worker.query",
                            kind="kill",
                            match={"position": 1},
                            max_triggers=1,
                        )
                    ],
                    ledger=tmp_path / "ledger",
                )
            )
            try:
                with pytest.raises(WorkerCrashError):
                    ParallelExecutor(jobs=2, max_pool_restarts=0).run_workload(
                        index.searcher(), queries, checkpoint=checkpoint
                    )
            finally:
                faults.clear_plan()
        assert checkpoint.exists()
        assert main(parallel + ["--resume"]) == 0
        assert capsys.readouterr().out == expected
        assert not checkpoint.exists()

    def test_index_and_ingest_read_the_same_files_under_the_same_names(
        self, tmp_path
    ):
        # `--data DIR` is DIR/*.txt for every command: the nested copy
        # of a.txt is not a second document called a.txt.
        directory = tmp_path / "nested"
        (directory / "sub").mkdir(parents=True)
        for name in ("a.txt", "b.txt", "sub/a.txt", "sub/c.txt"):
            (directory / name).write_text(
                " ".join(f"{name}-{i}" for i in range(40))
            )
        params = ["-w", "20", "--tau", "4"]
        index_path, store = tmp_path / "n.idx", tmp_path / "n.lsm"
        assert main(["index", "--data", str(directory),
                     "--out", str(index_path)] + params) == 0
        assert main(["ingest", "--dir", str(store),
                     "--data", str(directory)] + params) == 0
        with Index.open(index_path) as built, Index.open_live(store) as live:
            names = [document.name for document in built.data]
            assert names == ["a.txt", "b.txt"]
            assert [document.name for document in live.data] == names
        # ... and a directory `repro index` refuses, `repro ingest`
        # refuses too, before it creates a store for it.
        missing = ["--data", str(tmp_path / "missing")] + params
        assert main(["index", "--out", str(index_path)] + missing) == 2
        assert main(["ingest", "--dir", str(tmp_path / "m.lsm")] + missing) == 2
        assert not (tmp_path / "m.lsm").exists()


class TestSelfJoin:
    def test_finds_shared_passage(self, corpus_dir, capsys):
        directory, _query = corpus_dir
        rc = main(["selfjoin", "--data", str(directory), "-w", "20", "--tau", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "doc0.txt ~ doc5.txt" in out

    def test_jobs_checkpoint_resume_print_the_serial_output(
        self, corpus_dir, tmp_path, capsys
    ):
        directory, _query = corpus_dir
        selfjoin = ["selfjoin", "--data", str(directory), "-w", "20", "--tau", "4"]
        assert main(selfjoin) == 0
        expected = capsys.readouterr().out
        assert "doc0.txt ~ doc5.txt" in expected

        checkpoint = tmp_path / "join.ckpt"
        parallel = selfjoin + ["--jobs", "2", "--checkpoint", str(checkpoint)]
        assert main(parallel) == 0
        assert capsys.readouterr().out == expected
        assert not checkpoint.exists()  # removed on success

        # An interrupted join (one worker killed, no restart budget)
        # leaves the checkpoint behind; --resume finishes it.
        params = SearchParams.from_values(w=20, tau=4)
        faults.install_plan(
            FaultPlan(
                [
                    FaultSpec(
                        point="parallel.worker.document",
                        kind="kill",
                        match={"doc_id": 3},
                        max_triggers=1,
                    )
                ],
                ledger=tmp_path / "ledger",
            )
        )
        try:
            with pytest.raises(WorkerCrashError):
                ParallelExecutor(jobs=2, max_pool_restarts=0).self_join(
                    collection_from_directory(directory),
                    params,
                    exclude_same_document_within=params.w,
                    checkpoint=checkpoint,
                )
        finally:
            faults.clear_plan()
        assert checkpoint.exists()
        assert main(parallel + ["--resume"]) == 0
        assert capsys.readouterr().out == expected
        assert not checkpoint.exists()

    def test_no_replication(self, tmp_path, capsys):
        directory = tmp_path / "unique"
        directory.mkdir()
        for index in range(3):
            (directory / f"u{index}.txt").write_text(
                " ".join(f"tok{index}_{i}" for i in range(100))
            )
        rc = main(["selfjoin", "--data", str(directory), "-w", "10", "--tau", "2"])
        assert rc == 1


class TestErrors:
    def test_search_missing_index(self, tmp_path, capsys):
        rc = main(
            ["search", "--index", str(tmp_path / "nope.idx"),
             "--query", str(tmp_path / "nope.txt")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_reader_closing_the_pipe_is_not_a_traceback(
        self, corpus_dir, tmp_path
    ):
        # `repro search ... | head -1`: enough output to outrun the pipe
        # buffer, the reader gone after one line.
        directory, query_path = corpus_dir
        index_path = tmp_path / "corpus.idx"
        main(["index", "--data", str(directory), "--out", str(index_path),
              "-w", "20", "--tau", "4"])
        src = str(Path(repro.__file__).resolve().parent.parent)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "search", "--index",
             str(index_path), "--show-text"]
            + ["--query", str(query_path)] * 200,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert b"doc1.txt" in process.stdout.readline()
        process.stdout.close()
        stderr = process.stderr.read().decode()
        process.stderr.close()
        assert process.wait(timeout=60) != 0
        assert "Traceback" not in stderr and "BrokenPipe" not in stderr

    def test_index_missing_directory(self, tmp_path):
        rc = main(
            ["index", "--data", str(tmp_path / "missing"),
             "--out", str(tmp_path / "o.idx")]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "flag", [["--routing", "exact"], ["--max-queue", "8"]],
        ids=["routing", "max-queue"],
    )
    def test_serve_shards_refuses_the_flags_it_would_ignore(
        self, flag, tmp_path, capsys
    ):
        # Refused on the arguments alone, before anything is opened.
        # `serve` makes SIGTERM raise KeyboardInterrupt in this process;
        # left installed, every later forked pool worker would inherit it.
        previous = signal.getsignal(signal.SIGTERM)
        try:
            rc = main(["serve", "--index", str(tmp_path / "nope.idx"),
                       "--shards", "2"] + flag)
        finally:
            signal.signal(signal.SIGTERM, previous)
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: {flag[0]} cannot be combined with --shards" in err
        assert "repro index --routing" in err
        assert "repro query --routing" in err


class TestServeStartupDoor:
    def test_sigterm_right_after_serving_exits_cleanly(self, corpus_dir, tmp_path):
        # A SIGTERM the moment `SERVING` is out -- as a supervisor's stop
        # or a test teardown sends it -- must unwind like one that lands
        # in serve_forever(): exit 0, no traceback, --metrics-out written.
        # Twelve serve processes alternate between a snapshot and a live
        # store (WAL replayed on open), each forked as a shard worker is.
        directory, _query = corpus_dir
        index_path = tmp_path / "corpus.idx"
        store = tmp_path / "store"
        assert main(["index", "--data", str(directory), "--out",
                     str(index_path), "-w", "20", "--tau", "4"]) == 0
        assert main(["ingest", "--dir", str(store), "--data", str(directory),
                     "-w", "20", "--tau", "4"]) == 0
        sources = (["--index", str(index_path)],
                   ["--index", str(store), "--live"])
        with WorkerLauncher.start() as launcher:
            for trial in range(12):
                metrics = tmp_path / f"metrics-{trial}.json"
                stderr = tmp_path / f"stderr-{trial}.txt"
                read_fd, write_fd = os.pipe()
                with stderr.open("w") as err:
                    try:
                        process = launcher.launch(
                            ["serve", *sources[trial % 2], "--port", "0",
                             "--metrics-out", str(metrics)],
                            stdout=write_fd, stderr=err.fileno(),
                        )
                    finally:
                        os.close(write_fd)
                with open(read_fd) as stdout:
                    assert stdout.readline().startswith("SERVING ")
                    os.kill(process.pid, signal.SIGTERM)
                    code = process.wait(timeout=30)
                text = stderr.read_text()
                assert (code, "Traceback" in text, metrics.exists()) == (
                    0, False, True
                ), (trial, text)
        reopened = Index.open_live(store)
        try:
            assert len(reopened.data) == 6
        finally:
            reopened.close()


class TestCliFilters:
    def test_min_pairs_filters_weak_passages(self, tmp_path, capsys):
        import random as rnd

        from repro.cli import main

        rng = rnd.Random(2)
        vocab = [f"v{i}" for i in range(800)]
        directory = tmp_path / "corpus"
        directory.mkdir()
        base = [rng.choice(vocab) for _ in range(200)]
        (directory / "a.txt").write_text(" ".join(base))
        (directory / "b.txt").write_text(
            " ".join(rng.choice(vocab) for _ in range(200))
        )
        # Query: long copy of a (many pairs) — should survive min-pairs.
        query = tmp_path / "q.txt"
        query.write_text(" ".join(base[50:150]))
        index_path = tmp_path / "c.idx"
        main(["index", "--data", str(directory), "--out", str(index_path),
              "-w", "20", "--tau", "3"])
        rc_loose = main(
            ["search", "--index", str(index_path), "--query", str(query),
             "--min-pairs", "1"]
        )
        out_loose = capsys.readouterr().out
        rc_strict = main(
            ["search", "--index", str(index_path), "--query", str(query),
             "--min-pairs", "10000"]
        )
        out_strict = capsys.readouterr().out
        assert rc_loose == 0 and "a.txt" in out_loose
        assert rc_strict == 1 and "no reused passages" in out_strict
