"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import importlib.util
import random
import signal
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import SearchParams, faults
from repro.core.pkwise import PKWiseSearcher
from repro.corpus import DocumentCollection
from repro.index.interval_index import IntervalIndex


def load_script(relative: str):
    """A script under ``benchmarks/``, loaded by path: it is not a package."""
    path = Path(__file__).resolve().parents[1] / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The benchmark's oracle, which imports nothing of repro.
Oracle = load_script("benchmarks/e2e/oracle.py").Oracle


#: Handlers a test must leave as it found them: a forked pool worker
#: inherits the parent's, so one leaked here hangs a later test.
GUARDED_SIGNALS = (signal.SIGTERM, signal.SIGALRM)


@pytest.fixture(autouse=True)
def _clean_plan():
    """No fault plan leaks into or out of a test, and no SIGTERM or
    SIGALRM handler leaks out of one: the test that changed it fails."""
    handlers = {signum: signal.getsignal(signum) for signum in GUARDED_SIGNALS}
    faults.clear_plan()
    yield
    faults.clear_plan()
    leaked = []
    for signum, handler in handlers.items():
        if signal.getsignal(signum) != handler:
            leaked.append(signal.Signals(signum).name)
            signal.signal(signum, handler)  # spare the tests that follow
    if leaked:
        pytest.fail(f"the test left its {' and '.join(leaked)} handler installed")


class FakeClock:
    """A monotonic clock that moves only when a test advances it."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def paper_example():
    """The running example of the paper (Example 1): d and q, w=4, tau=1."""
    data = DocumentCollection()
    data.add_text("the lord of the rings")
    query = data.encode_query("the lord and the kings")
    params = SearchParams(w=4, tau=1, k_max=2)
    return data, query, params


@pytest.fixture
def small_corpus():
    """A small deterministic corpus with genuine repeated segments."""
    rng = random.Random(1234)
    data = DocumentCollection()
    vocab = [f"w{i}" for i in range(60)]
    docs = []
    for _ in range(6):
        docs.append([vocab[rng.randrange(len(vocab))] for _ in range(80)])
    # Copy a segment of doc 0 into doc 3 with one substitution.
    segment = docs[0][10:40]
    segment[5] = "w999"
    docs[3][20:50] = segment
    for tokens in docs:
        data.add_tokens(tokens)
    return data


@pytest.fixture
def built(small_corpus):
    """``small_corpus`` and an engine built over it (frozen, as built)."""
    return small_corpus, PKWiseSearcher(small_corpus, SearchParams(w=10, tau=2, k_max=3))


def reference_index(searcher) -> IntervalIndex:
    """The dict index of ``searcher``'s documents, indexed one at a time
    by :meth:`IntervalIndex.index_document` (Algorithm 5's stream): what
    a built engine's columns are held to, and what a test that reads
    postings by signature (``_postings``, scalar ``probe``) reads."""
    index = IntervalIndex(searcher.params.w, searcher.params.tau, searcher.scheme)
    for doc_id, ranks in enumerate(searcher.rank_docs):
        index.index_document(doc_id, ranks)
    return index


@pytest.fixture
def queries(small_corpus):
    """Documents 0, 3 and 5 cut to 40 tokens and re-encoded as queries
    (0 and 3 share the planted segment)."""
    return [
        small_corpus.encode_query_tokens(
            small_corpus.vocabulary.decode(small_corpus[d].tokens[:40])
        )
        for d in (0, 3, 5)
    ]


@pytest.fixture
def query(small_corpus):
    """Doc 0's tokens 8-38 as a query: it matches docs 0 and 3, which a
    router over two or three shards holds in different shards."""
    words = small_corpus.vocabulary.decode(small_corpus[0].tokens[8:38])
    return small_corpus.encode_query_tokens(words, name="cross-shard")


def random_collection(rng: random.Random, *, max_docs=4, max_len=40, max_vocab=25):
    """A random collection + query for randomized equivalence tests."""
    vocab = rng.randint(3, max_vocab)
    data = DocumentCollection()
    for _ in range(rng.randint(1, max_docs)):
        length = rng.randint(5, max_len)
        data.add_tokens([f"t{rng.randrange(vocab)}" for _ in range(length)])
    query = data.encode_query_tokens(
        [f"t{rng.randrange(vocab)}" for _ in range(rng.randint(5, max_len))]
    )
    return data, query


def make_corpus(seed, *, docs=6, length=80, vocab=40, planted=True):
    """Seeded random corpus and the rng that made it.  With ``planted``,
    doc 3 carries doc 0's tokens 10-40 with one edit, so a query cut from
    doc 0 matches two documents."""
    rng = random.Random(seed)
    data = DocumentCollection()
    token_docs = [
        [f"t{rng.randrange(vocab)}" for _ in range(length)] for _ in range(docs)
    ]
    if planted and docs >= 4:
        segment = token_docs[0][10:40]
        segment[5] = "t-planted"
        token_docs[3][20:50] = segment
    for tokens in token_docs:
        data.add_tokens(tokens)
    return data, rng


def make_queries(data, rng, *, count=4, vocab=40, length=30):
    """Queries over a ``make_corpus`` collection: query ``2k`` is cut from
    document ``-k`` (query 0 from doc 0, which the planted copy repeats,
    query 2 from the last one), odd ones are random, and query ``4k + 2``
    carries a word that no document has every 12 positions."""
    queries = []
    for i in range(count):
        if i % 2 == 0 and len(data) > 0:
            source = data[-(i // 2) % len(data)]
            tokens = data.vocabulary.decode(source.tokens[8 : 8 + length])
        else:
            tokens = [f"t{rng.randrange(vocab)}" for _ in range(length)]
        if i % 4 == 2:
            tokens[5::12] = ["unseen"] * len(tokens[5::12])
        queries.append(data.encode_query_tokens(tokens, name=f"q{i}"))
    return queries


def expected_pairs(data, query, w: int, tau: int, *, ndocs=None, removed=()) -> set:
    """The reference: every ``(doc_id, data_start, query_start, overlap)``
    with ``overlap >= w - tau``, from the benchmark's numpy oracle.

    ``ndocs`` keeps the first ``ndocs`` documents and ``removed`` drops
    tombstoned ids: a live index part way through its writes.  The oracle
    indexes a table by token id, where the out-of-vocabulary id -1 would
    alias the last vocabulary token and an id past the table would not
    index, so every id outside the vocabulary becomes one id past it.
    """
    size = len(data.vocabulary)
    tokens = [token if 0 <= token < size else size for token in query.tokens]
    oracle = Oracle([document.tokens for document in data], size + 1, w, tau)
    return set(oracle.expected(tokens, ndocs=ndocs, removed=removed))


@contextmanager
def serving(server):
    """Run ``server.serve_forever`` on a daemon thread for the block, then
    shut the server down.  It polls for shutdown every 0.05 s: at the
    stdlib's 0.5 s every ``shutdown()`` waits up to half a second."""
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def pairs_as_set(result) -> set:
    """MatchPair list -> comparable set of tuples."""
    return set(map(tuple, result.pairs if hasattr(result, "pairs") else result))


def probe_runs(batch) -> list[list[tuple]]:
    """ProbeBatch -> one ``[(doc, u, v), ...]`` run per probed signature."""
    rows = list(zip(batch.docs.tolist(), batch.us.tolist(), batch.vs.tolist()))
    bounds = batch.entry_bounds().tolist()
    assert bounds[-1] == batch.entries
    return [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def slice_accessor(rank_docs):
    """``rank_slice(doc_id, lo, hi) -> d[lo:hi]`` as a plain list: a
    container's own ``rank_slice``, or list-backed documents sliced as
    lists — what the verifier's tests hand it."""
    try:
        return rank_docs.rank_slice
    except AttributeError:
        return lambda doc_id, lo, hi: list(rank_docs[doc_id][lo:hi])


class PerTokenOrder:
    """A :class:`~repro.ordering.GlobalOrder`'s ranks one token at a
    time, by the definition its ``rank`` method had before the order
    ranked a column by one gather (``GlobalOrder.rank_ids``): a negative
    id (the query-side OOV sentinel) takes ``OOV_RANK`` and admits
    nothing; a build-time id, the rank the order's table gives it; any
    other id, on first sight, the next lazy rank ``-1, -2, ...`` — or,
    with ``admit=False`` (a query), ``OOV_RANK`` until a write admitted
    it.  It starts from ``order``'s admissions so far and keeps its own
    after."""

    def __init__(self, order) -> None:
        self._built = order.universe_size
        self._rank_of_token = order._token_of_rank.argsort().tolist()
        admitted = order._admitted[: order.num_admitted].tolist()
        self.extra_ranks = {token: -1 - at for at, token in enumerate(admitted)}

    def rank(self, token_id: int, admit: bool = True) -> int:
        from repro.ordering.global_order import OOV_RANK

        if token_id < 0:
            return OOV_RANK
        if token_id < self._built:
            return self._rank_of_token[token_id]
        rank = self.extra_ranks.get(token_id)
        if rank is None:
            if not admit:
                return OOV_RANK
            rank = -1 - len(self.extra_ranks)
            self.extra_ranks[token_id] = rank
        return rank

    def rank_sequence(self, tokens, admit: bool = True) -> list[int]:
        return [self.rank(token, admit) for token in tokens]


def admitted_ranks(order) -> dict[int, int]:
    """``token id -> lazy rank`` of every token ``order`` admitted, in
    arrival order: what :class:`PerTokenOrder` keeps as a dict."""
    admitted = order._admitted[: order.num_admitted].tolist()
    return {token: -1 - at for at, token in enumerate(admitted)}
