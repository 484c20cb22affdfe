"""The four workloads: seeded inputs, set-up, operations, expected replies.

Each workload is a closed loop with one caller, who issues the next
operation only when the previous reply is in (a batch screening job).  All
inputs come from ``make_profile_collection("REUTERS",
scale, seed)`` with ``w=50, tau=5, k_max=4``; queries are rendered to text
and submitted as text, so tokenisation is on the measured path.

Why these four (the ``why`` strings in ``BENCHMARK.json`` are the short
form):

``search-reuse``
    The exact engine as served — build, compact snapshot, mmap open,
    ``Index.search_text`` — with routing off and every query carrying a
    150-token reuse case.  Candidate sets are long and span far more
    documents than ``PackedRankDocs``' 16-entry decode cache, so
    verification does nearly all the work.  The workload a verification
    change must win on.
``search-routed``
    The same pipeline on a 2.6x larger corpus with
    ``RoutingPolicy(mode="exact")`` stored in the snapshot; one third of
    the queries carry no reuse.  The routing tier prunes most documents,
    verification's share drops, and build/save/open are large enough to
    show in ``setup_s`` and ``index_bytes_per_token``.  A routing
    regression shows only here.
``serve-sharded``
    The search-reuse snapshot behind ``repro serve --shards 2``: HTTP,
    JSON, admission queue, result cache, shard plan, scatter and merge do
    most of the work.  Four requests in five go in turn to a hot set of
    verbatim-reuse texts that fits the cache, the fifth to a cold cycle
    that never does, so 80% of the replies are cache hits of one weight
    (~1,340 pairs) and every miss evicts.
``ingest-mixed``
    Adds, removes and queries on one live ``IngestStore``-backed index
    with the default ``CompactionPolicy``, ``background=False`` and
    ``fsync=False`` (the stated flush policy), so flush and compaction
    stalls land on the write path and counts repeat exactly.  A change
    that speeds queries by making the memtable, WAL, fold or tiered probe
    dearer shows here and nowhere else.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import queue
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from harness import (
    SRC,
    calibrate,
    calibrate_after_wait,
    peak_rss_mb,
    slowdown,
    tree_bytes,
)
from oracle import Oracle

W, TAU, K_MAX = 50, 5, 4
SEGMENT_TOKENS = 150
#: Adds between two calibrations on the write path (about 50 ms of work).
ADDS_PER_CALIBRATION = 32


@dataclass(frozen=True)
class Profile:
    """Workload sizes.  ``tiny`` exists for the self-tests only."""

    name: str
    comparable: bool
    setup_repeats: int
    warmup_ops: int
    reuse_scale: float
    reuse_queries: int
    routed_scale: float
    routed_queries: int
    serve_pool: int
    serve_cache: int
    serve_hot: int
    ingest_scale: float
    ingest_bootstrap: int
    ingest_query_every: int
    ingest_pool: int


# Sized on the 2-core sandbox so that one run — three set-ups, oracle,
# warm-up and the 15 s window — stays near 25 s on average: the driver's
# 92 runs must fit 3420 s even when everything but the window (which is
# bounded by the clock) takes twice as long.
DEFAULT = Profile(
    name="default", comparable=True, setup_repeats=3, warmup_ops=8,
    reuse_scale=0.1, reuse_queries=128,
    routed_scale=0.26, routed_queries=384,
    serve_pool=48, serve_cache=24, serve_hot=8,
    ingest_scale=0.18, ingest_bootstrap=300, ingest_query_every=100,
    ingest_pool=4,
)
TINY = Profile(
    name="tiny", comparable=False, setup_repeats=1, warmup_ops=2,
    reuse_scale=0.012, reuse_queries=6,
    routed_scale=0.02, routed_queries=9,
    serve_pool=8, serve_cache=4, serve_hot=2,
    ingest_scale=0.03, ingest_bootstrap=60, ingest_query_every=40,
    ingest_pool=2,
)
PROFILES = {"default": DEFAULT, "tiny": TINY}


class Op:
    """One operation a caller issued and waited for."""

    __slots__ = (
        "kind", "key", "start", "raw", "norm", "pairs", "error",
        "cached", "server_seconds", "stats", "state",
    )

    def __init__(self, kind, key, start=0.0, raw=0.0):
        self.kind = kind
        self.key = key
        self.start = start
        self.raw = raw
        self.norm = raw
        self.pairs = None
        self.error = None
        self.cached = None
        self.server_seconds = None
        self.stats = None
        self.state = None


def _sorted_pairs(pairs) -> list[tuple]:
    return sorted(tuple(pair) for pair in pairs)


_NO_SPAN = nullcontext()


def _root(tracer, name: str, op):
    """The operation's root span in a traced pass, nothing otherwise."""
    return _NO_SPAN if tracer is None else tracer.root(name, op)


class Workload:
    """Common shape; see the module docstring for what each one is for."""

    name = ""

    def __init__(self, profile: Profile, seed: int, workdir: Path) -> None:
        self.profile = profile
        self.seed = seed
        self.workdir = Path(workdir)
        self.oracle: Oracle | None = None
        self.serve_command: list[str] | None = None
        self._expected: dict = {}

    # -- inputs ---------------------------------------------------------
    def generate(self) -> None:
        raise NotImplementedError

    def input_digest(self) -> str:
        """Digest of every generated input (self-tests: same seed, same bytes)."""
        digest = hashlib.blake2b(digest_size=16)
        for part in self._digest_parts():
            digest.update(repr(part).encode("utf-8"))
        return digest.hexdigest()

    def _profile_collection(self, scale, queries, cases=1, levels=None):
        from repro.corpus.synthetic import ReuseSpec, make_profile_collection

        spec = {"cases_per_query": cases, "segment_length": SEGMENT_TOKENS}
        if levels is not None:
            spec["levels"] = levels
        return make_profile_collection(
            "REUTERS", scale, self.seed, reuse=ReuseSpec(**spec), num_queries=queries
        )

    def _render(self, tokens) -> str:
        return " ".join(self.data.vocabulary.decode(tokens))

    def _make_oracle(self) -> None:
        self.oracle = Oracle(
            [document.tokens for document in self.data],
            len(self.data.vocabulary), W, TAU,
        )
        self._expected = {}

    def params(self):
        from repro.params import SearchParams, suggested_subpartitions

        return SearchParams(w=W, tau=TAU, k_max=K_MAX, m=suggested_subpartitions(TAU))

    # -- lifecycle ------------------------------------------------------
    def setup(self, stage) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` built (also between repeated set-ups)."""

    def warmup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds=None, max_ops=None, tracer=None) -> list[Op]:
        raise NotImplementedError

    def trace_ops(self, seconds: int) -> int:
        """Operations a traced pass issues for ``--seconds`` (fixed, so counts repeat)."""
        raise NotImplementedError

    # -- results --------------------------------------------------------
    def expected(self, op: Op) -> list[tuple]:
        """What the oracle says the reply to ``op`` must be (memoised)."""
        if op.key not in self._expected:
            self._expected[op.key] = self.oracle.expected(self.query_tokens[op.key])
        return self._expected[op.key]

    def index_bytes(self) -> int:
        return tree_bytes(self.path)

    def corpus_tokens(self) -> int:
        return self.data.total_tokens()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def anchor_queries(self) -> list[list[int]]:
        """Token lists of a few queries for anchoring the oracle."""
        return self.query_tokens[:2]


# ----------------------------------------------------------------------
# search-reuse / search-routed
# ----------------------------------------------------------------------
class SearchWorkload(Workload):
    def __init__(self, profile, seed, workdir, *, name, scale, queries, routed):
        super().__init__(profile, seed, workdir)
        self.name = name
        self.scale = scale
        self.num_queries = queries
        self.routed = routed
        self.index = None
        self.built = None
        self.path = self.workdir / f"{name}.idx"

    def generate(self) -> None:
        from repro.corpus.plagiarism import ObfuscationLevel

        # Routed reuse cases are none/low obfuscation only.  Half of the
        # high/simulated cases match nothing, which routing answers as fast
        # as a clean query; with the clean third that put 55% of the
        # queries in the fast mode and the median on the edge between the
        # two (IQR/median 12% over ten seeds).
        levels = (ObfuscationLevel.NONE, ObfuscationLevel.LOW) if self.routed else None
        self.data, queries, self.truth = self._profile_collection(
            self.scale, self.num_queries, levels=levels
        )
        if self.routed:
            # Every third query is clean: same seed, no injected case.
            _data, clean, _truth = self._profile_collection(
                self.scale, self.num_queries, cases=0
            )
            queries = [
                clean[i] if i % 3 == 2 else query for i, query in enumerate(queries)
            ]
            self.truth = [t for t in self.truth if t.query_id % 3 != 2]
        self.query_tokens = [list(query.tokens) for query in queries]
        self.texts = [self._render(tokens) for tokens in self.query_tokens]
        # Seeded order, so a time-bounded prefix is a random sample.
        self.sequence = list(range(len(self.texts)))
        random.Random(self.seed).shuffle(self.sequence)

    def _digest_parts(self):
        yield [document.tokens for document in self.data]
        yield self.texts
        yield self.sequence

    def setup(self, stage) -> None:
        from repro import Index
        from repro.routing import RoutingPolicy

        self.close()
        with stage("harness.corpus"):
            self.generate()
        with stage("index.build"):
            self.built = Index.build(
                self.data, w=W, tau=TAU, k_max=K_MAX,
                routing=RoutingPolicy(mode="exact") if self.routed else None,
            )
        with stage("persistence.save"):
            self.built.save(self.path, compact=True)
        with stage("persistence.open"):
            self.index = Index.open(self.path, mmap=True)
        self._make_oracle()

    def close(self) -> None:
        if self.index is not None:
            self.index.close()
        self.index = None
        self.built = None

    def warmup(self) -> None:
        # The tail of the sequence: not what the measured window starts with.
        for qid in self.sequence[-self.profile.warmup_ops:]:
            self.index.search_text(self.texts[qid])

    def trace_ops(self, seconds: int) -> int:
        per_second = 6 if self.routed else 3
        return max(4, min(len(self.sequence), per_second * seconds))

    def measure(self, seconds=None, max_ops=None, tracer=None) -> list[Op]:
        clock = time.perf_counter
        search_text = self.index.search_text
        ops: list[Op] = []
        before = calibrate()
        deadline = clock() + seconds if seconds is not None else None
        position = 0
        while True:
            qid = self.sequence[position % len(self.sequence)]
            text = self.texts[qid]
            op = Op("query", qid)
            start = clock()
            try:
                with _root(tracer, "op.query", position):
                    result = search_text(text)
                op.raw = clock() - start
                op.pairs = _sorted_pairs(result.pairs)
                op.stats = result.stats
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                op.raw = clock() - start
                op.error = f"{type(exc).__name__}: {exc}"
            op.start = start
            after = calibrate()
            op.norm = op.raw / slowdown(before, after)
            before = after
            ops.append(op)
            position += 1
            if max_ops is not None:
                if position >= max_ops:
                    break
            elif clock() >= deadline:
                break
        return ops


# ----------------------------------------------------------------------
# serve-sharded
# ----------------------------------------------------------------------
class ServeWorkload(Workload):
    name = "serve-sharded"
    SHARDS = 2
    CYCLE = 5  # four hot requests, then a cold one

    def __init__(self, profile, seed, workdir):
        super().__init__(profile, seed, workdir)
        self.path = self.workdir / "serve.idx"
        self.shard_dir = Path(f"{self.path}.shards")
        self.process = None
        self.url = None
        self.shards: list[dict] = []
        self._cursor = 0
        self._rss_mb = 0.0

    def generate(self) -> None:
        self.data, queries, self.truth = self._profile_collection(
            self.profile.reuse_scale, self.profile.serve_pool
        )
        self.query_tokens = [list(query.tokens) for query in queries]
        self.texts = [self._render(tokens) for tokens in self.query_tokens]
        self.bodies = [
            json.dumps({"text": text}).encode("utf-8") for text in self.texts
        ]
        # A fixed 4:1 mix instead of Zipf draws: four requests to a hot set
        # that fits the cache, then one from a cold cycle long enough that
        # LRU has evicted it before it comes round again.  The share of
        # misses is then exact rather than binomial — with Zipf(1.0) draws
        # it moved 20% +- 3 points between seeds and took ops_per_s with it.
        #
        # The hot texts all carry a verbatim reuse case, and are asked in
        # turn.  A hit costs what its reply weighs — 4 ms for no pairs, 8 ms
        # for the ~1,340 pairs of a verbatim 150-token case — so a hot set
        # of eight texts drawn from all four levels put the median hit
        # wherever the seed's draw fell (4.4-5.9 ms over seeds 1-11, and
        # past the 25% bound on the driver's host).  Verbatim cases weigh
        # the same under every seed, and are the texts a screening job
        # asks about again.
        from repro.corpus.plagiarism import ObfuscationLevel

        verbatim = {
            case.query_id for case in self.truth
            if case.level is ObfuscationLevel.NONE
        }
        order = list(range(len(self.texts)))
        random.Random(self.seed).shuffle(order)
        self.hot = [qid for qid in order if qid in verbatim][:self.profile.serve_hot]
        if len(self.hot) < self.profile.serve_hot:
            raise RuntimeError("serve pool holds too few verbatim reuse cases")
        cold = [qid for qid in order if qid not in self.hot]
        hot_turn = iter(range(8192))
        self.stream = [
            cold[(i // self.CYCLE) % len(cold)] if i % self.CYCLE == self.CYCLE - 1
            else self.hot[next(hot_turn) % len(self.hot)]
            for i in range(8192)
        ]
        self._cursor = 0

    def _digest_parts(self):
        yield [document.tokens for document in self.data]
        yield self.texts
        yield self.stream[:1024]

    def setup(self, stage) -> None:
        from repro import Index
        from repro.service import ShardPlan

        self.close()
        with stage("harness.corpus"):
            self.generate()
        with stage("index.build"):
            built = Index.build(self.data, w=W, tau=TAU, k_max=K_MAX)
        with stage("persistence.save"):
            built.save(self.path, compact=True)
        with stage("shards.plan_build"):
            # The server's own ShardPlan.ensure then finds this manifest.
            shutil.rmtree(self.shard_dir, ignore_errors=True)
            ShardPlan.ensure(
                self.data, built.params, self.shard_dir, num_shards=self.SHARDS
            )
        with stage("service.spawn", in_process=False):
            self._spawn()
        self._make_oracle()

    def _spawn(self) -> None:
        # --workers 1: with the default 4, two concurrent searches in one
        # shard process race on PackedRankDocs' decode cache (KeyError in
        # move_to_end; with two callers about 1 request in 800 came back
        # partial=true).  The benchmark must run workloads on which no
        # operation fails, and one search thread per shard process is what
        # a 2-core host wants anyway.
        self.serve_command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--index", str(self.path), "--mmap",
            "--shards", str(self.SHARDS),
            "--cache-size", str(self.profile.serve_cache),
            "--workers", "1", "--port", "0",
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        env["TMPDIR"] = str(self.workdir)
        self._stderr = open(self.workdir / "serve.stderr", "wb")
        self.process = subprocess.Popen(
            self.serve_command, stdout=subprocess.PIPE, stderr=self._stderr,
            env=env, text=True, start_new_session=True,
        )
        lines: queue.Queue = queue.Queue()
        threading.Thread(
            target=self._pump_stdout, args=(self.process, lines), daemon=True
        ).start()
        self.shards = []
        self.url = None
        deadline = time.monotonic() + 90.0
        while self.url is None:
            try:
                line = lines.get(timeout=max(0.1, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                tail = (self.workdir / "serve.stderr").read_text(errors="replace")[-2000:]
                raise RuntimeError(f"repro serve did not start: {tail}")
            fields = line.split()
            if fields[:1] == ["SHARD"]:
                self.shards.append(
                    {"id": int(fields[1]), "url": fields[2],
                     "pid": int(fields[3].split("=")[1])}
                )
            elif fields[:1] == ["SERVING"]:
                self.url = fields[1]
        self._address = self._host_port(self.url)
        while True:  # first healthy reply
            status, health = self._get("/healthz")
            if status == 200 and health.get("status") == "ok":
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"repro serve never became healthy: {health}")
            time.sleep(0.05)

    @staticmethod
    def _pump_stdout(process, lines) -> None:
        for line in process.stdout:
            lines.put(line)
        lines.put(None)

    @staticmethod
    def _host_port(url: str) -> tuple[str, int]:
        host, port = url.removeprefix("http://").split(":")
        return host, int(port)

    def _get(self, path: str, address=None):
        connection = http.client.HTTPConnection(*(address or self._address), timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def metrics(self) -> dict:
        """Router ``/metrics`` (merged) plus each shard worker's own."""
        _status, merged = self._get("/metrics")
        per_shard = [
            self._get("/metrics", self._host_port(shard["url"]))[1]["metrics"]
            for shard in self.shards
        ]
        return {"merged": merged["metrics"], "shards": per_shard}

    def close(self) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        pids = [process.pid] + [shard["pid"] for shard in self.shards]
        self._rss_mb = sum(peak_rss_mb(pid) for pid in pids)
        process.terminate()  # SIGTERM: the CLI stops its workers, then exits
        try:
            process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pass
        try:  # whatever is left of the session, workers included
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        process.wait()
        process.stdout.close()
        self._stderr.close()
        deadline = time.monotonic() + 10.0
        for pid in pids[1:]:  # grandchildren: cannot wait(), so poll
            while time.monotonic() < deadline:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.02)

    def warmup(self) -> None:
        for qid in self.hot:  # fills the result caches
            self._request(qid)
        for _ in range(self.CYCLE):
            self._next_request()

    def trace_ops(self, seconds: int) -> int:
        return max(self.CYCLE, 12 * seconds // self.CYCLE * self.CYCLE)

    def measure(self, seconds=None, max_ops=None, tracer=None) -> list[Op]:
        """Whole cycles of requests, one calibration between cycles.

        The work happens in the server's processes while this one waits,
        so the loop runs when they are idle and after a warm-up loop of
        its own.  (On a noisy quarter of an hour the spread of the ten
        seeds' medians was 27% raw and 12% normalised for hits, 22% and 4%
        for misses.)
        """
        clock = time.perf_counter
        ops: list[Op] = []
        deadline = clock() + seconds if seconds is not None else None
        before = calibrate_after_wait()
        while True:
            cycle = [self._next_request() for _ in range(self.CYCLE)]
            after = calibrate_after_wait()
            factor = slowdown(before, after)
            before = after
            for op in cycle:
                op.norm = op.raw / factor
            ops.extend(cycle)
            if max_ops is not None:
                if len(ops) >= max_ops:
                    break
            elif clock() >= deadline:
                break
        return ops

    def _next_request(self) -> Op:
        qid = self.stream[self._cursor % len(self.stream)]
        self._cursor += 1
        return self._request(qid)

    def _request(self, qid: int) -> Op:
        """One ``POST /search`` on a connection of its own, as
        ``repro.service.client`` (and so ``repro query`` and the router's
        shard backends) makes them.  On a kept-alive connection every
        reply stalls ~40 ms — see README, findings."""
        clock = time.perf_counter
        op = Op("request", qid)
        op.start = start = clock()
        connection = http.client.HTTPConnection(*self._address, timeout=60)
        try:
            connection.request(
                "POST", "/search", self.bodies[qid],
                {"Content-Type": "application/json", "Connection": "close"},
            )
            response = connection.getresponse()
            raw_body = response.read()
            op.raw = clock() - start
            reply = json.loads(raw_body)
            if response.status != 200:
                op.error = f"HTTP {response.status}: {reply.get('error')}"
            elif reply.get("partial"):
                op.error = f"partial reply: {reply.get('failures')}"
            else:
                op.pairs = _sorted_pairs(reply["pairs"])
                op.cached = bool(reply["cached"])
                op.server_seconds = float(reply["seconds"])
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            op.raw = clock() - start
            op.error = f"{type(exc).__name__}: {exc}"
        finally:
            connection.close()
        return op

    def peak_rss_mb(self) -> float:
        """Sum over the server's processes; valid once :meth:`close` has run."""
        return self._rss_mb


# ----------------------------------------------------------------------
# ingest-mixed
# ----------------------------------------------------------------------
class IngestWorkload(Workload):
    name = "ingest-mixed"

    def __init__(self, profile, seed, workdir):
        super().__init__(profile, seed, workdir)
        self.base = self.workdir / "ingest-base"
        self._live_bytes = 0
        self.round_info: list[dict] = []
        self.written_bytes = 0

    def generate(self) -> None:
        self.data, queries, self.truth = self._profile_collection(
            self.profile.ingest_scale, self.profile.ingest_pool
        )
        self.query_tokens = [list(query.tokens) for query in queries]
        self.texts = [self._render(tokens) for tokens in self.query_tokens]
        self.documents = [self._render(document.tokens) for document in self.data]
        bootstrap = self.profile.ingest_bootstrap
        rng = random.Random(self.seed)
        removed: set[int] = set()
        self.sequence: list[tuple] = []
        count = bootstrap
        queries_issued = 0
        for doc in range(bootstrap, len(self.documents)):
            self.sequence.append(("add", doc))
            count += 1
            if (doc - bootstrap + 1) % self.profile.ingest_query_every == 0:
                victim = rng.choice([d for d in range(count) if d not in removed])
                removed.add(victim)
                self.sequence.append(("remove", victim))
                self.sequence.append(
                    ("query", queries_issued % len(self.texts), count, frozenset(removed))
                )
                queries_issued += 1
        self.final_state = (count, frozenset(removed))

    def _digest_parts(self):
        yield self.documents
        yield self.texts
        yield [step[:2] for step in self.sequence]

    def setup(self, stage) -> None:
        from repro.ingest import IngestStore

        with stage("harness.corpus"):
            self.generate()
        with stage("ingest.bootstrap"):
            shutil.rmtree(self.base, ignore_errors=True)
            store = IngestStore.create(
                self.params(), directory=self.base,
                data=self.data.subset(range(self.profile.ingest_bootstrap)),
            )
            store.flush()
            store.close()
        self._make_oracle()

    def warmup(self) -> None:
        """A short prefix of the sequence on a throwaway copy of the store."""
        from repro import Index

        directory = self.workdir / "ingest-warm"
        shutil.copytree(self.base, directory)
        index = Index.open_live(directory)
        try:
            for step in self.sequence[:self.profile.warmup_ops * 8]:
                if step[0] == "add":
                    index.add(self.documents[step[1]])
            index.flush()
            index.search_text(self.texts[0])
        finally:
            index.close()
            shutil.rmtree(directory, ignore_errors=True)

    def trace_ops(self, seconds: int) -> int:
        return len(self.sequence)  # one whole round, whatever --seconds is

    def measure(self, seconds=None, max_ops=None, tracer=None) -> list[Op]:
        """Whole rounds, each on a fresh copy of the bootstrapped store.

        A round is never cut short — its flushes and its compaction are
        what the workload is for — so another round starts only while at
        least half of it fits in what is left of ``seconds``.
        """
        clock = time.perf_counter
        ops: list[Op] = []
        self.round_info = []
        started = clock()
        while True:
            round_start = clock()
            self._round(len(self.round_info), ops, tracer)
            now = clock()
            if max_ops is not None:
                break
            if (now - started) + 0.5 * (now - round_start) > seconds:
                break
        return ops

    def _round(self, number: int, ops: list[Op], tracer) -> None:
        from repro import Index

        clock = time.perf_counter
        directory = self.workdir / f"ingest-round-{number}"
        shutil.rmtree(directory, ignore_errors=True)
        shutil.copytree(self.base, directory)
        seen_sizes: dict[str, int] = {}

        def scan() -> None:
            for entry in os.scandir(directory):
                if entry.is_file():
                    size = entry.stat().st_size
                    if size > seen_sizes.get(entry.name, 0):
                        seen_sizes[entry.name] = size

        index = Index.open_live(directory)
        info = {"round": number}
        try:
            pending: list[Op] = []
            before = calibrate()
            for position, step in enumerate(self.sequence):
                kind = step[0]
                op = Op(kind, step[1])
                start = clock()
                try:
                    if kind == "add":
                        text = self.documents[step[1]]
                        with _root(tracer, "op.add", position):
                            doc_id = index.add(text)
                        op.raw = clock() - start
                        if doc_id != step[1]:
                            op.error = f"add returned doc id {doc_id}, expected {step[1]}"
                    elif kind == "remove":
                        with _root(tracer, "op.remove", position):
                            index.remove(step[1])
                        op.raw = clock() - start
                    else:
                        text = self.texts[step[1]]
                        with _root(tracer, "op.query", position):
                            result = index.search_text(text)
                        op.raw = clock() - start
                        op.pairs = _sorted_pairs(result.pairs)
                        op.stats = result.stats
                        op.state = (step[2], step[3])
                except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                    op.raw = clock() - start
                    op.error = f"{type(exc).__name__}: {exc}"
                op.start = start
                ops.append(op)
                pending.append(op)
                if tracer is not None:
                    scan()  # write amplification: sizes of files as they grow
                if kind != "add" or len(pending) >= ADDS_PER_CALIBRATION:
                    after = calibrate()
                    factor = slowdown(before, after)
                    for done in pending:
                        done.norm = done.raw / factor
                    pending = []
                    before = after
            after = calibrate()
            for done in pending:
                done.norm = done.raw / slowdown(before, after)

            store = index.searcher().store
            info["store_metrics"] = store.metrics_snapshot()
            self._verify(index, "verify-final", ops)
            index.close()
            start = clock()
            with _root(tracer, "op.reopen", "reopen"):
                index = Index.open_live(directory)
            ops.append(Op("reopen", None, start, clock() - start))
            info["reopened_metrics"] = index.searcher().store.metrics_snapshot()
            self._verify(index, "verify-reopened", ops)
        finally:
            index.close()
        if tracer is not None:
            scan()
            self.written_bytes = sum(seen_sizes.values())
        self._live_bytes = tree_bytes(directory)
        self.round_info.append(info)
        shutil.rmtree(directory, ignore_errors=True)

    def _verify(self, index, kind: str, ops: list[Op]) -> None:
        """Every pool query against the final (or reopened) store; untimed."""
        for qid, text in enumerate(self.texts):
            op = Op(kind, qid)
            op.state = self.final_state
            try:
                op.pairs = _sorted_pairs(index.search_text(text).pairs)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                op.error = f"{type(exc).__name__}: {exc}"
            ops.append(op)

    def expected(self, op: Op) -> list[tuple]:
        key = (op.key, op.state)
        if key not in self._expected:
            ndocs, removed = op.state
            self._expected[key] = self.oracle.expected(
                self.query_tokens[op.key], ndocs=ndocs, removed=removed
            )
        return self._expected[key]

    def index_bytes(self) -> int:
        return self._live_bytes

    def user_text_bytes(self) -> int:
        return sum(
            len(self.documents[step[1]].encode("utf-8"))
            for step in self.sequence if step[0] == "add"
        )


def make_workload(name: str, profile: Profile, seed: int, workdir: Path) -> Workload:
    if name == "search-reuse":
        return SearchWorkload(
            profile, seed, workdir, name=name, scale=profile.reuse_scale,
            queries=profile.reuse_queries, routed=False,
        )
    if name == "search-routed":
        return SearchWorkload(
            profile, seed, workdir, name=name, scale=profile.routed_scale,
            queries=profile.routed_queries, routed=True,
        )
    if name == "serve-sharded":
        return ServeWorkload(profile, seed, workdir)
    if name == "ingest-mixed":
        return IngestWorkload(profile, seed, workdir)
    raise KeyError(name)


WORKLOADS = ("search-reuse", "search-routed", "serve-sharded", "ingest-mixed")
