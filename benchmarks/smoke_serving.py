#!/usr/bin/env python
"""CI smoke for the serving stack: real process, real HTTP, real index.

Exercises the full ``repro serve`` path end to end:

1. generates a small deterministic corpus (fixed seed) in a temp dir,
2. builds an index with ``repro index``,
3. starts ``repro serve --port 0`` as a subprocess and parses the
   ``SERVING http://...`` line for the ephemeral port,
4. hits ``/healthz``, runs the same query twice through ``/search``
   (one cache miss, one hit) and asserts pair-for-pair parity,
5. routes as an operator does — the index is built with ``repro index
   --routing exact``, so the two queries above were routed; the same
   text through ``repro query --routing off`` (CLI flag → HTTP body →
   service → searcher) must print the same pairs, and ``/metrics``
   must show the fingerprint tier checked documents,
6. snapshots ``/metrics`` into a ``check_regression.py``-compatible
   record (``{"config": ..., "serial": {"metrics": ...}}``).

Run it twice and diff the two snapshots with ``check_regression.py``:
the counters (request counts, cache hits/misses, search phase counters)
are deterministic for the fixed corpus, so any drift between two runs
of the same commit — or between a PR and its base — is a real behaviour
change, not noise.

With ``--shards N`` the smoke instead exercises the sharded stack:
``repro serve --shards N`` (N worker processes + scatter router),
asserts pair-for-pair parity against the single-process server and that
the repeat was a hit of the router's own result cache, writes the
deterministic metrics record, checks that 100 sequential cache hits grow
the router's thread count by at most 2 (the HTTP front door reuses its
handler threads), then SIGKILLs one worker mid-run and
asserts that the cached text is still answered whole (from the router,
no sub-request) while a text never asked before gets partial results
naming the dead shard (the supervisor is disabled so the corpse stays
dead for the assertion).  The worker launcher (its ``LAUNCHER pid=``
line) must still run one thread after the kill phase, and no ``SHARD``
pid may outlive the router; its peak RSS is printed beside the summary,
since it is neither the router nor a worker.

With ``--chaos`` (requires ``--replicas >= 2``) the smoke becomes a
self-healing drill: ``repro serve --shards N --replicas R`` with the
supervisor on, then a seeded loop SIGKILLs random workers under a
sustained query stream.  Every query during every outage must come back
complete and pair-identical (replica failover), and after each kill the
supervisor must restart + re-admit the worker until ``/healthz`` is
``ok`` again with no operator action; the median time from a kill to
that re-admission is printed on stdout, outside the metrics record.
The drill repeats one text, so its server runs with ``--cache-size
0``: with the result caches on, every query after the first would be
answered by the router alone and "0 lost queries" would say nothing
about failover.  The emitted
metrics record is a hand-built envelope of chaos counters (kills, query
failures = 0, parity violations = 0, heals) that is identical across
runs, so two chaos runs diff clean under ``check_regression.py
--strict``.

Usage::

    PYTHONPATH=src python benchmarks/smoke_serving.py --out smoke1.json
    PYTHONPATH=src python benchmarks/smoke_serving.py --shards 3 --out s3.json
    PYTHONPATH=src python benchmarks/smoke_serving.py \\
        --shards 2 --replicas 2 --chaos --out chaos.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ensure_importable() -> None:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(ROOT / "src"))


SEED = 20160626  # deterministic corpus => deterministic counters
NUM_DOCS = 6
DOC_TOKENS = 300
VOCAB = 150
W, TAU = 20, 4


def write_corpus(directory: Path) -> tuple[str, str]:
    """Write a deterministic corpus with real repeats; returns two
    queries that match every document (the second is for legs that need
    a text no cache has seen)."""
    rng = random.Random(SEED)
    vocab = [f"word{i}" for i in range(VOCAB)]
    base = [rng.choice(vocab) for _ in range(DOC_TOKENS)]
    for i in range(NUM_DOCS):
        tokens = list(base)
        for j in range(0, len(tokens), 13):  # light per-doc perturbation
            tokens[j] = rng.choice(vocab)
        (directory / f"doc{i}.txt").write_text(" ".join(tokens))
    return " ".join(base[50:150]), " ".join(base[150:250])


def _spawn_server(cmd: list[str], startup_timeout: float):
    """Start a serve subprocess; returns (process, url, shard_lines,
    launcher_pid).

    ``shard_lines`` collects the ``SHARD <id> <url> pid=<pid> ...``
    lines a sharded server prints before ``SERVING`` (empty otherwise);
    ``launcher_pid`` is from its ``LAUNCHER pid=<pid>`` line (None
    otherwise).
    """
    server = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    deadline = time.monotonic() + startup_timeout
    url = None
    shard_lines: list[str] = []
    launcher_pid = None
    while time.monotonic() < deadline:
        line = server.stdout.readline()
        if line.startswith("LAUNCHER pid="):
            launcher_pid = int(line.split("=", 1)[1])
            continue
        if line.startswith("SHARD "):
            shard_lines.append(line.strip())
            continue
        if line.startswith("SERVING "):
            url = line.split(maxsplit=1)[1].strip()
            break
        if server.poll() is not None:
            break
    if url is None:
        server.terminate()
        server.wait(timeout=10)
        raise RuntimeError(f"no SERVING line from {' '.join(cmd)}")
    return server, url, shard_lines, launcher_pid


def _healthz_any_status(url: str) -> tuple[int, dict]:
    """GET /healthz; returns (http_status, body) even on 503 (down)."""
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(f"{url}/healthz", timeout=10) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


def _status_field(pid: int, name: str) -> str:
    """One line of ``/proc/<pid>/status``, e.g. ``Threads`` or ``VmHWM``."""
    status = Path(f"/proc/{pid}/status").read_text()
    return re.search(rf"^{name}:\s+(.*)$", status, re.M).group(1)


def _thread_count(pid: int) -> int:
    return int(_status_field(pid, "Threads"))


def _exists(pid: int) -> bool:
    """``kill(pid, 0)`` as the benchmark harness asks it: a zombie counts."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _parse_shard_line(line: str) -> dict:
    """``SHARD 1 http://h:p pid=123 docs=[2,4) replica=0`` -> dict.

    The ``replica=`` field is trailing and optional (pre-replication
    servers do not print it).
    """
    parts = line.split()
    lo, hi = parts[4][len("docs=["):-1].split(",")
    replica = 0
    for extra in parts[5:]:
        if extra.startswith("replica="):
            replica = int(extra[len("replica="):])
    return {
        "shard_id": int(parts[1]),
        "url": parts[2],
        "pid": int(parts[3][len("pid="):]),
        "doc_lo": int(lo),
        "doc_hi": int(hi),
        "replica": replica,
    }


def run_sharded(args: argparse.Namespace, index_path: Path,
                query_text: str, fresh_text: str) -> dict:
    """The --shards mode: parity, deterministic metrics, kill a worker."""
    from repro.service.client import (
        remote_healthz,
        remote_metrics,
        remote_search,
    )

    # Reference answer from the single-process server.
    server, url, _, _ = _spawn_server(
        [sys.executable, "-m", "repro.cli", "serve",
         "--index", str(index_path), "--port", "0"],
        args.startup_timeout,
    )
    try:
        reference = remote_search(url, query_text)
        fresh_reference = remote_search(url, fresh_text)
    finally:
        server.terminate()
        server.wait(timeout=10)
    assert reference["num_pairs"] > 0, "smoke query found no matches"

    # --no-supervise: this mode asserts the *partial-results* contract,
    # which needs the killed worker to stay dead instead of healing.
    server, url, shard_lines, launcher_pid = _spawn_server(
        [sys.executable, "-m", "repro.cli", "serve",
         "--index", str(index_path), "--port", "0",
         "--shards", str(args.shards), "--no-supervise"],
        args.startup_timeout,
    )
    try:
        shards = [_parse_shard_line(line) for line in shard_lines]
        assert len(shards) == args.shards, shard_lines

        health = remote_healthz(url)
        assert health["status"] == "ok", health
        assert health["num_shards"] == args.shards, health
        assert health["documents"] == NUM_DOCS, health

        first = remote_search(url, query_text)
        second = remote_search(url, query_text)
        assert first["pairs"] == reference["pairs"], (
            "sharded results diverge from the single-process server"
        )
        assert not first["cached"] and second["cached"], (first, second)
        assert first["pairs"] == second["pairs"], "cache changed the answer"

        # Snapshot metrics BEFORE the kill phase: the counters up to
        # here are deterministic, the recovery path below is not.
        snapshot = remote_metrics(url)
        counters = snapshot["metrics"]["counters"]
        # The repeat was the router's hit: it reached no shard.
        assert counters["router.cache_hits"] == 1, counters
        assert counters["service.cache_hits"] == 0, counters

        # The front door reuses its handler threads: sequential hits add
        # at most the one a finishing connection can still hold (and a
        # spare), not one per request.
        threads = _thread_count(server.pid)
        for _ in range(100):
            assert remote_search(url, query_text)["cached"]
        grown = _thread_count(server.pid) - threads
        assert grown <= 2, f"the router grew {grown} threads over 100 hits"

        victim = shards[1]
        os.kill(victim["pid"], signal.SIGKILL)
        time.sleep(0.5)  # let the OS reap the port

        # A stored complete reply outlives a dead shard ...
        stored = remote_search(url, query_text)
        assert stored["cached"] and not stored.get("partial"), stored
        assert stored["pairs"] == reference["pairs"], (
            "the router's cache changed the answer"
        )
        # ... and a text it never answered gets the partial contract.
        partial = remote_search(url, fresh_text)
        assert partial.get("partial") is True, partial
        failures = partial["failures"]
        assert len(failures) == 1, failures
        assert failures[0]["position"] == victim["shard_id"], failures
        assert failures[0]["query_name"].endswith(
            f"@shard-{victim['shard_id']:03d}"
        ), failures
        survivors = [
            pair for pair in fresh_reference["pairs"]
            if not victim["doc_lo"] <= pair[0] < victim["doc_hi"]
        ]
        assert partial["pairs"] == survivors, (
            "partial results must cover exactly the surviving shards"
        )
        assert len(survivors) < fresh_reference["num_pairs"], (
            "kill test needs matches inside the killed shard"
        )

        # Degraded is an *answering* state: the body says degraded but
        # the HTTP status must stay 200 (503 is reserved for down /
        # closed, where no query can be answered at all).
        code, degraded = _healthz_any_status(url)
        assert degraded["status"] == "degraded", degraded
        assert code == 200, (code, degraded)

        # The launcher forks every worker, so it must stay single-threaded.
        assert launcher_pid is not None, "no LAUNCHER line"
        assert _thread_count(launcher_pid) == 1, (
            f"the launcher runs {_thread_count(launcher_pid)} threads"
        )
        launcher_hwm = _status_field(launcher_pid, "VmHWM")
    finally:
        server.terminate()
        server.wait(timeout=30)
    outlived = [shard["pid"] for shard in shards if _exists(shard["pid"])]
    assert not outlived, f"shard workers {outlived} outlived the router"
    assert not _exists(launcher_pid), "the launcher outlived the router"

    print(f"sharded smoke ok: {first['num_pairs']} pairs across "
          f"{args.shards} shards, parity + router cache verified; killed "
          f"shard {victim['shard_id']} -> cached text still whole, fresh "
          f"text {len(survivors)} partial pairs; launcher VmHWM "
          f"{launcher_hwm}")
    return snapshot


def _supervisor_replicas(url: str) -> list[dict]:
    code, health = _healthz_any_status(url)
    assert code == 200, (code, health)  # degraded still answers: 200
    return health["supervisor"]["replicas"]


def run_chaos(args: argparse.Namespace, index_path: Path,
              query_text: str) -> dict:
    """The --chaos mode: kill loop under load, zero lost queries.

    Returns a *hand-built* metrics envelope: the live router counters
    vary with poll timing (how many queries land during each outage),
    so the deterministic record is the chaos outcome itself — kills
    injected, query failures observed (must be 0), parity violations
    (must be 0), heals completed.  Identical across runs by
    construction, so ``check_regression.py --strict`` can diff it.
    """
    from repro.service.client import remote_search

    assert args.replicas >= 2, "--chaos needs --replicas >= 2 (failover)"

    server, url, _, _ = _spawn_server(
        [sys.executable, "-m", "repro.cli", "serve",
         "--index", str(index_path), "--port", "0"],
        args.startup_timeout,
    )
    try:
        reference = remote_search(url, query_text)
    finally:
        server.terminate()
        server.wait(timeout=10)
    assert reference["num_pairs"] > 0, "smoke query found no matches"

    # --cache-size 0 (router and workers): the drill repeats one text,
    # and only an uncached query scatters and can exercise failover.
    server, url, shard_lines, _ = _spawn_server(
        [sys.executable, "-m", "repro.cli", "serve",
         "--index", str(index_path), "--port", "0",
         "--shards", str(args.shards), "--replicas", str(args.replicas),
         "--check-interval", "0.2", "--cache-size", "0"],
        args.startup_timeout,
    )
    queries = 0
    query_failures = 0
    parity_violations = 0
    healed = 0
    heal_seconds: list[float] = []
    rng = random.Random(SEED)
    try:
        shards = [_parse_shard_line(line) for line in shard_lines]
        assert len(shards) == args.shards * args.replicas, shard_lines

        def one_query() -> None:
            nonlocal queries, query_failures, parity_violations
            response = remote_search(url, query_text)
            queries += 1
            if response.get("partial") or response.get("failures"):
                query_failures += 1
            elif response["pairs"] != reference["pairs"]:
                parity_violations += 1

        one_query()
        for round_no in range(args.kills):
            replicas = _supervisor_replicas(url)
            assert all(r["state"] == "ok" for r in replicas), replicas
            victim = rng.choice(replicas)
            killed_at = time.monotonic()
            os.kill(victim["pid"], signal.SIGKILL)
            # Sustained queries across the outage; heal = every replica
            # back to ok with one more completed restart than before.
            deadline = time.monotonic() + args.heal_timeout
            while True:
                one_query()
                replicas = _supervisor_replicas(url)
                restarts = sum(r["restarts"] for r in replicas)
                if (all(r["state"] == "ok" for r in replicas)
                        and restarts >= round_no + 1):
                    healed += 1
                    heal_seconds.append(time.monotonic() - killed_at)
                    break
                if time.monotonic() > deadline:
                    raise AssertionError(
                        f"kill round {round_no} never healed: {replicas}"
                    )
                time.sleep(0.1)

        code, health = _healthz_any_status(url)
        assert code == 200 and health["status"] == "ok", (code, health)
        one_query()
    finally:
        server.terminate()
        server.wait(timeout=30)

    assert query_failures == 0, (
        f"{query_failures}/{queries} queries failed during chaos"
    )
    assert parity_violations == 0, (
        f"{parity_violations}/{queries} queries lost parity during chaos"
    )
    print(f"chaos smoke ok: {args.kills} kills across {args.shards}x"
          f"{args.replicas} workers, {queries} queries, 0 failures, "
          f"0 parity violations, {healed} heals")
    # Wall clock, so printed beside the record rather than in it.
    print(f"kill -> re-admit: median {statistics.median(heal_seconds):.2f}s "
          f"over {len(heal_seconds)} kills")
    return {
        "counters": {
            "chaos.kills": args.kills,
            "chaos.query_failures": query_failures,
            "chaos.parity_violations": parity_violations,
            "chaos.healed": healed,
        },
        "timers": {},
        "gauges": {
            "chaos.shards": args.shards,
            "chaos.replicas": args.replicas,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", type=Path, required=True,
                        help="where to write the metrics record")
    parser.add_argument("--startup-timeout", type=float, default=30.0)
    parser.add_argument("--shards", type=int, default=0,
                        help="exercise `repro serve --shards N` instead of "
                             "the single-process server")
    parser.add_argument("--replicas", type=int, default=1,
                        help="workers per shard (chaos mode needs >= 2)")
    parser.add_argument("--chaos", action="store_true",
                        help="self-healing drill: SIGKILL random workers "
                             "under load; requires --shards and "
                             "--replicas >= 2")
    parser.add_argument("--kills", type=int, default=3,
                        help="workers to SIGKILL in --chaos mode")
    parser.add_argument("--heal-timeout", type=float, default=60.0,
                        help="seconds to wait for the supervisor to heal "
                             "each kill")
    args = parser.parse_args(argv)

    _ensure_importable()
    from repro.service.client import remote_healthz, remote_metrics, remote_search

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        tmp_path = Path(tmp)
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        query_text, fresh_text = write_corpus(corpus_dir)
        index_path = tmp_path / "corpus.idx"

        # The single-process leg serves a routed snapshot; the sharded
        # legs keep the unrouted one their records were taken with.
        single = not args.chaos and args.shards <= 1
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "index",
             "--data", str(corpus_dir), "--out", str(index_path),
             "-w", str(W), "--tau", str(TAU),
             *(["--routing", "exact"] if single else [])],
            check=True,
        )

        if args.chaos:
            snapshot = run_chaos(args, index_path, query_text)
            record = {
                "config": {
                    "profile": "serving-smoke-chaos",
                    "num_documents": NUM_DOCS,
                    "shards": args.shards,
                    "replicas": args.replicas,
                    "kills": args.kills,
                    "w": W,
                    "tau": TAU,
                    "k_max": 4,
                },
                "serial": {"metrics": snapshot},
            }
            args.out.write_text(
                json.dumps(record, indent=2, sort_keys=True) + "\n"
            )
            print(f"wrote {args.out}")
            return 0

        if args.shards > 1:
            snapshot = run_sharded(args, index_path, query_text, fresh_text)
            record = {
                "config": {
                    "profile": "serving-smoke-sharded",
                    "num_documents": NUM_DOCS,
                    "num_queries": 2,
                    "shards": args.shards,
                    "w": W,
                    "tau": TAU,
                    "k_max": 4,
                },
                "serial": {"metrics": snapshot},
            }
            args.out.write_text(
                json.dumps(record, indent=2, sort_keys=True) + "\n"
            )
            print(f"wrote {args.out}")
            return 0

        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--index", str(index_path), "--port", "0"],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + args.startup_timeout
            url = None
            while time.monotonic() < deadline:
                line = server.stdout.readline()
                if line.startswith("SERVING "):
                    url = line.split(maxsplit=1)[1].strip()
                    break
                if server.poll() is not None:
                    print("error: server exited before SERVING line",
                          file=sys.stderr)
                    return 1
            if url is None:
                print("error: no SERVING line within timeout", file=sys.stderr)
                return 1

            health = remote_healthz(url)
            assert health["status"] == "ok", health
            assert health["documents"] == NUM_DOCS, health

            first = remote_search(url, query_text)
            second = remote_search(url, query_text)
            assert first["num_pairs"] > 0, "smoke query found no matches"
            assert not first["cached"] and second["cached"], (first, second)
            assert first["pairs"] == second["pairs"], "cache changed the answer"

            unrouted = subprocess.run(
                [sys.executable, "-m", "repro.cli", "query", "--server", url,
                 "--text", query_text, "--routing", "off", "--show-pairs"],
                check=True, capture_output=True, text=True,
            ).stdout
            assert "(fresh," in unrouted, "a mode override shared a cache entry"
            printed = re.findall(
                r"doc (\d+) \[(\d+)\] ~ query \[(\d+)\] overlap (\d+)", unrouted
            )
            assert [list(map(int, pair)) for pair in printed] == first["pairs"], (
                "routing changed the answer"
            )

            snapshot = remote_metrics(url)
            counters = snapshot["metrics"]["counters"]
            assert counters["service.cache_hits"] == 1, counters
            assert counters["service.completed"] == 3, counters
            # One routed miss went through the fingerprint tier.
            assert counters["routing_checked_docs"] == NUM_DOCS, counters
        finally:
            server.terminate()
            server.wait(timeout=10)

    record = {
        "config": {
            "profile": "serving-smoke",
            "num_documents": NUM_DOCS,
            "num_queries": 3,
            "w": W,
            "tau": TAU,
            "k_max": 4,
        },
        "serial": {"metrics": snapshot},
    }
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"smoke ok: {first['num_pairs']} pairs, cache hit and routed/"
          f"unrouted parity verified; wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
