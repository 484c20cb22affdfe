"""One exactness matrix: every configuration returns the reference pairs.

pkwise is exact (Lemma 3/4), so no layer may add, drop or alter a window
pair.  A cell takes one value on each axis and checks every reply
against ``conftest.expected_pairs`` (the benchmark's numpy oracle, which
shares no code with ``repro``); its queries include one of unseen words
only and one shorter than ``w``, whose reference is empty.  Axes:
documents added one by one into a live memtable, whose columns catch up
when a query or a seal finds it behind (memtable), the engine as built,
frozen (compact), or saved with routing off and mapped (mmap: an
``exact`` cell opens it with ``routing="exact"``); routing ``off``,
``exact``, or off with every ``request`` asking for exact; ``serial`` behind a
``SearchService`` or a ``--jobs 2`` workload under ``fork`` / ``spawn``;
one index, 3 shards, or 2 shards x 2 replicas (a ``ShardPlan``'s files,
each mapped by a service of its own, as ``repro serve --shards``
serves them); built once, then seeded add / remove / flush / compact
(live), the same on a durable store closed and reopened with
``Index.open_live`` (reopen), or the same adds and removes sent
through ``index.serve()`` while queries alternate between the index and
its service (served).  The writes add words the build never saw, and
the last add is asked for too: each later query must resolve them.

The cells are a pairwise cover: two values of two axes meet in some cell
unless ``INVALID`` says why they cannot, which the first test checks, so
a new layer gets exactness coverage by adding one axis value and the
cells its pairs need.  Pooled cells also run their engine serially and
require equal merged ``SearchStats`` counters, field for field.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, product

import pytest

from repro import Index, SearchParams
from repro.core.pkwise import PKWiseSearcher
from repro.corpus import DocumentCollection
from repro.eval import run_searcher
from repro.parallel import executor as executor_module
from repro.service import ShardPlan

from .conftest import expected_pairs, make_corpus, make_queries, plan_router

AXES = {
    "storage": ("memtable", "compact", "mmap"),
    "routing": ("off", "exact", "request"),
    "execution": ("serial", "fork", "spawn"),
    "topology": ("single", "sharded", "replicated"),
    "lifecycle": ("oneshot", "live", "reopen", "served"),
}

#: ``(axis, values, axis, values, reason)``: pairs no cell may hold.
INVALID = [
    ("execution", ("fork", "spawn"), "topology", ("sharded", "replicated"),
     "the router scatters to shard services on threads; a pool runs one engine"),
    ("execution", ("fork", "spawn"), "routing", ("request",),
     "pool workers search under the engine's own mode; no request carries one"),
    ("execution", ("spawn",), "storage", ("memtable", "compact"),
     "spawn workers map a saved snapshot of any engine: that is the mmap value"),
    ("execution", ("spawn",), "lifecycle", ("reopen", "served"),
     "spawn workers map a folded snapshot of the store, as in the live cell"),
    ("storage", ("memtable", "compact"), "topology", ("sharded", "replicated"),
     "every shard is a ShardPlan.build file, mapped as a repro serve --shards worker maps it"),
    ("storage", ("memtable",), "lifecycle", ("oneshot",),
     "a build is frozen: only a live index has a memtable, fed one document at a time"),
    ("storage", ("memtable", "compact"), "lifecycle", ("reopen",),
     "a reopened store maps its segment files"),
    ("topology", ("sharded", "replicated"), "lifecycle", ("live", "reopen", "served"),
     "the router is a read path: /ingest and /remove answer 405"),
]


Cell = namedtuple("Cell", AXES)
CELLS = [Cell(*row.split()) for row in (
    "memtable off      serial  single      live",
    "memtable exact    fork    single      live",
    "memtable request  serial  single      live",
    "memtable exact    serial  single      served",
    "compact  off      fork    single      live",
    "compact  exact    fork    single      oneshot",
    "compact  off      fork    single      served",
    "compact  request  serial  single      oneshot",
    "mmap     off      spawn   single      oneshot",
    "mmap     off      serial  sharded     oneshot",
    "mmap     off      serial  replicated  oneshot",
    "mmap     off      fork    single      reopen",
    "mmap     exact    serial  sharded     oneshot",
    "mmap     exact    serial  replicated  oneshot",
    "mmap     exact    serial  single      reopen",
    "mmap     exact    spawn   single      live",
    "mmap     request  serial  sharded     oneshot",
    "mmap     request  serial  replicated  oneshot",
    "mmap     request  serial  single      reopen",
    "mmap     request  serial  single      served",
)]

#: Cell ``n`` searches with ``GRID[n % len(GRID)]``.
GRID = [SearchParams(w=8, tau=2, k_max=2), SearchParams(w=10, tau=2, k_max=3, m=2),
        SearchParams(w=12, tau=3, k_max=2), SearchParams(w=6, tau=1, k_max=2, m=2)]


def invalid(a, x, b, y) -> str | None:
    """The reason value ``x`` of axis ``a`` cannot meet ``y`` of ``b``."""
    for axis_a, values_a, axis_b, values_b, reason in INVALID:
        for (p, u), (q, v) in (((a, x), (b, y)), ((b, y), (a, x))):
            if (p, q) == (axis_a, axis_b) and u in values_a and v in values_b:
                return reason
    return None


def test_cells_cover_every_valid_pair():
    for axis_a, values_a, axis_b, values_b, _reason in INVALID:
        assert set(values_a) <= set(AXES[axis_a])
        assert set(values_b) <= set(AXES[axis_b])
    assert len(set(CELLS)) == len(CELLS)
    assert sum(cell.execution == "spawn" for cell in CELLS) <= 2
    for a, b in combinations(AXES, 2):
        for x, y in product(AXES[a], AXES[b]):
            met = [c for c in CELLS if getattr(c, a) == x and getattr(c, b) == y]
            reason = invalid(a, x, b, y)
            assert bool(met) != bool(reason), (a, x, b, y, reason or "no cell")


def test_reference_keeps_out_of_vocabulary_words_apart():
    # The oracle indexes a table by token id: left as -1, "x" and "y"
    # would count as the last word, z, and match all of document 1.
    data = DocumentCollection()
    data.add_text("a b c d e f g h")
    data.add_text("z z z z z z z z")
    pairs = expected_pairs(data, data.encode_query("a b c d x y"), 4, 2)
    assert len(pairs) == 9 and {pair[0] for pair in pairs} == {0}


def new_text(rng, texts, shortest=3):
    """A random document over the corpus's 200 words and 100 more, half
    the time holding an edited copy of a slice of an earlier one; lengths
    straddle every ``w`` of the grid."""
    tokens = [f"t{rng.randrange(300)}" for _ in range(rng.randint(shortest, 50))]
    source = rng.choice(texts)
    if rng.random() < 0.5 and len(source) > 20:
        at = rng.randrange(len(source) - 20)
        piece = source[at : at + 20]
        piece[rng.randrange(20)] = "edit"
        tokens[len(tokens) // 2 : len(tokens) // 2] = piece
    return tokens


def plan_writes(rng, texts, steps=12):
    """Seeded writes over ``texts`` (extended by the adds), ending in an
    add of at least 20 words."""
    live, ops = list(range(len(texts))), []
    for step in range(steps):
        roll = 0.0 if step == steps - 1 else rng.random()
        if roll < 0.5 or not live:
            texts.append(new_text(rng, texts, 20 if step == steps - 1 else 3))
            live.append(len(texts) - 1)
            ops.append(("add", len(texts) - 1))
        elif roll < 0.7:
            ops.append(("remove", live.pop(rng.randrange(len(live)))))
        else:
            ops.append(("flush" if roll < 0.88 else "compact", None))
    return ops


def open_engine(cell, data, params, tmp_path):
    if cell.storage == "compact":
        searcher = PKWiseSearcher(data, params)
        assert searcher.frozen and searcher.compacted() is searcher
        return Index(searcher, data)
    Index.build(data, params.with_routing("off")).save(tmp_path / "index.idx")
    opened = Index.open(tmp_path / "index.idx", mmap=True, routing=params.routing.mode)
    assert opened.frozen
    return opened


def open_router(cell, data, params, tmp_path):
    shards, replicas = (3, 1) if cell.topology == "sharded" else (2, 2)
    plan = ShardPlan.build(data, params.with_routing("off"), tmp_path,
                           num_shards=shards, replicas=replicas)
    return plan_router(tmp_path, plan, data, replicas=replicas, routing=params.routing.mode)


def encoded(data, queries):
    return [data.encode_query_tokens(query.source_tokens) for query in queries]


def answers(cell, index, queries, request, monkeypatch):
    """Per query, the pairs ``index`` returns under ``cell.execution``."""
    if cell.execution == "serial":
        with index.serve() as service:
            return [service.search(q, routing=request).pairs
                    for q in encoded(index.data, queries)]
    # One query per chunk, workers started the cell's way.
    monkeypatch.setattr(executor_module, "CHUNKS_PER_WORKER", len(queries))
    monkeypatch.setattr(executor_module, "START_METHOD", cell.execution)
    serial, pooled = (
        run_searcher(index.searcher(), encoded(index.data, queries), jobs=jobs)
        for jobs in (1, 2)
    )
    assert [*pooled.results_by_query.items()] == [*serial.results_by_query.items()]
    assert pooled.stats.snapshot()["counters"] == serial.stats.snapshot()["counters"]
    assert (pooled.metrics_snapshot()["metrics"]["counters"]
            == serial.metrics_snapshot()["metrics"]["counters"])
    return [pooled.results_by_query[i] for i in range(len(queries))]


@pytest.mark.parametrize("cell", CELLS, ids="-".join)
def test_cell(cell, tmp_path, monkeypatch):
    number = CELLS.index(cell)
    params = GRID[number % len(GRID)]
    data, rng = make_corpus(number, docs=5 + number % 3, vocab=200)
    queries = make_queries(data, rng, count=5, vocab=200)
    texts = [data.vocabulary.decode(document.tokens) for document in data]
    ops = plan_writes(rng, texts) if cell.lifecycle != "oneshot" else []
    if ops:
        queries.append(data.encode_query_tokens(texts[-1]))  # the last add
    queries.append(data.encode_query_tokens([f"unseen{i}" for i in range(30)]))
    queries.append(data.encode_query_tokens(["t1", "t2", "t3"]))  # < w
    truth = DocumentCollection()
    for tokens in texts:
        truth.add_tokens(tokens)

    def check(replies, ndocs, removed=(), where="at the end"):
        want = [sorted(expected_pairs(truth, query, params.w, params.tau,
                                      ndocs=ndocs, removed=removed))
                for query in encoded(truth, queries)]
        got = [sorted(map(tuple, pairs)) for pairs in replies]
        assert got == want * (len(got) // len(want)), where

    params = params.with_routing("exact" if cell.routing == "exact" else "off")
    request = "exact" if cell.routing == "request" else None

    if cell.topology != "single":
        asked = [request, "off"] if cell.routing == "exact" else [request]
        with open_router(cell, data, params, tmp_path) as router:
            assert router.num_shards == (3 if cell.topology == "sharded" else 2)
            replies = [router.search(q, routing=mode) for mode in asked for q in queries]
        assert not any(reply.partial for reply in replies)
        return check([reply.pairs for reply in replies], len(data))

    directory = tmp_path / "store"
    if cell.lifecycle == "reopen" or cell.storage == "memtable":
        durable = cell.lifecycle == "reopen"
        index = Index.open_live(directory if durable else None, params)
        ops = [("add", doc_id) for doc_id in range(len(data))] + ops
    else:
        index = open_engine(cell, data, params, tmp_path)
    # Served: writes go through the service, and after every step the
    # queries alternate between the index and the service.
    service = index.serve() if cell.lifecycle == "served" else None
    writer = service or index
    ndocs, removed = len(data), set()
    for step, (op, doc_id) in enumerate(ops):
        if op == "add":
            assert writer.add(" ".join(texts[doc_id])) == doc_id
            ndocs = doc_id + 1
        elif op == "remove":
            writer.remove(doc_id)
            removed.add(doc_id)
        else:
            getattr(index, op)()
            if op == "compact":
                assert not index.searcher().store.removed  # purged
        if service is None and op in ("add", "remove"):
            continue
        replies = []
        for number, query in enumerate(encoded(index.data, queries)):
            if service is not None and (number + step) % 2:
                replies.append(service.search(query, routing=request).pairs)
                continue
            result = index.search(query, routing=request)
            # Every tier's documents meet the gate; the last query has
            # no window.
            if cell.routing != "off" and number < len(queries) - 1:
                assert result.stats.routing_checked_docs == ndocs
            replies.append(result.pairs)
        check(replies, ndocs, removed, f"{op} at step {step}")
    if service is not None:
        service.close()
    if cell.lifecycle == "reopen":
        index.close()  # the last add lives only in the write-ahead log
        index = Index.open_live(directory)
        store = index.searcher().store
        assert store.next_doc_id == ndocs
        assert store.metrics_snapshot()["counters"]["ingest.wal_replayed"] > 0
    replies = answers(cell, index, queries, request, monkeypatch)
    index.close()
    check(replies, ndocs, removed)
