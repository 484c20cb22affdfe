"""Tests for repro.service: SearchService, ResultCache, HTTP front-end."""

from __future__ import annotations

import random
import re
import socket
import sys
import threading
import time

import pytest

from repro import Index, RoutingPolicy, SearchParams, ConfigurationError
from repro.core.base import SearchResult
from repro.core.pkwise import PKWiseSearcher
from repro.corpus import DocumentCollection
from repro.errors import (
    DeadlineExceededError,
    SearchCancelled,
    ServiceClosedError,
    ServiceOverloadError,
)
from repro.service import SearchService, serve_http
from repro.service.cache import ResultCache, query_token_hash
from repro.service.client import remote_healthz, remote_metrics, remote_search

from .conftest import pairs_as_set, serving


PARAMS = SearchParams(w=10, tau=2, k_max=3)


@pytest.fixture
def searcher(small_corpus):
    return PKWiseSearcher(small_corpus, PARAMS)


@pytest.fixture
def queries(small_corpus):
    """Queries cut from the corpus itself, so matches are guaranteed."""
    out = []
    for doc_id, start in [(0, 5), (0, 10), (3, 20), (1, 0), (2, 30), (4, 12)]:
        tokens = small_corpus[doc_id].tokens[start : start + 25]
        out.append(
            small_corpus.encode_query_tokens(
                [small_corpus.vocabulary.decode([t])[0] for t in tokens],
                name=f"q{doc_id}-{start}",
            )
        )
    return out


class BlockingSearcher:
    """Stub whose search blocks until released (ignores the cancel hook)."""

    name = "blocking"
    params = None

    def __init__(self) -> None:
        self.release = threading.Event()
        self.started = threading.Event()

    def search(self, query, *, cancel=None, routing=None) -> SearchResult:
        self.started.set()
        self.release.wait(10)
        return SearchResult(pairs=[])

    def close(self) -> None:
        pass


class CancellableSearcher:
    """Stub that honours the cancel hook, like the real slide loop."""

    name = "cancellable"
    params = None

    def search(self, query, *, cancel=None, routing=None) -> SearchResult:
        for window in range(500):
            if cancel is not None and cancel():
                raise SearchCancelled("stub cancelled", windows_processed=window)
            time.sleep(0.002)
        return SearchResult(pairs=[])

    def close(self) -> None:
        pass


def handler_threads(server) -> list[threading.Thread]:
    """The live handler threads of ``server`` (named after its port)."""
    name = f"http-handler-{server.server_address[1]}"
    return [thread for thread in threading.enumerate() if thread.name == name]


def wait_for(condition, seconds: float = 1.0) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def read_until_eof(sock: socket.socket) -> bytes:
    """Everything the server sends until it closes (a reset after the
    replies, from request bytes it left unread, ends the read too)."""
    received = b""
    try:
        while chunk := sock.recv(65536):
            received += chunk
    except ConnectionResetError:
        assert received, "reset before any reply"
    return received


class RecordingSearcher:
    """Stub that records the keywords each ``search`` call received."""

    name = "recording"
    params = None

    def __init__(self) -> None:
        self.calls: list[dict] = []

    def search(self, query, **kwargs) -> SearchResult:
        self.calls.append(kwargs)
        return SearchResult(pairs=[])

    def close(self) -> None:
        pass


class TestResultCache:
    def test_hit_miss_counters(self):
        cache = ResultCache(4)
        key = ("h", "p", 0)
        assert cache.get(key) is None
        cache.put(key, [1, 2])
        assert cache.get(key).pairs == (1, 2)
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self):
        cache = ResultCache(2)
        cache.put(("a", "p", 0), [1])
        cache.put(("b", "p", 0), [2])
        cache.get(("a", "p", 0))  # refresh a; b becomes LRU
        cache.put(("c", "p", 0), [3])
        assert cache.get(("b", "p", 0)) is None
        assert cache.get(("a", "p", 0)).pairs == (1,)
        assert cache.evictions == 1

    def test_epoch_purge(self):
        cache = ResultCache(8)
        cache.put(("a", "p", 0), [1])
        cache.put(("b", "p", 1), [2])  # epoch advanced: purges epoch-0 entry
        assert len(cache) == 1
        assert cache.invalidations == 1
        assert cache.get(("a", "p", 0)) is None

    def test_capacity_zero_disables(self):
        cache = ResultCache(0)
        cache.put(("a", "p", 0), [1])
        assert len(cache) == 0
        assert cache.get(("a", "p", 0)) is None

    def test_token_hash_content_based(self):
        assert query_token_hash([1, 2, 3]) == query_token_hash([1, 2, 3])
        assert query_token_hash([1, 2, 3]) != query_token_hash([3, 2, 1])


class TestServiceBasics:
    def test_epoch_invalidation_refreshes_results(self, small_corpus, searcher):
        query = small_corpus.encode_query_tokens(
            [
                small_corpus.vocabulary.decode([t])[0]
                for t in small_corpus[0].tokens[10:40]
            ]
        )
        with SearchService(Index(searcher, small_corpus)) as service:
            before = service.search(query)
            assert service.search(query).cached
            epoch = service.index_epoch
            # A new document that is an exact copy of the query text.
            new_doc = small_corpus.add_tokens(
                [
                    small_corpus.vocabulary.decode([t])[0]
                    for t in query.tokens
                ]
            )
            new_id = service.add(new_doc)
            # The first mutation upgrades to the LSM write path; the
            # upgrade itself is no epoch step, the add is the one.
            assert service.index_epoch == epoch + 1
            after = service.search(query)
            assert not after.cached
            assert len(after.pairs) > len(before.pairs)
            assert any(pair.doc_id == new_id for pair in after.pairs)
            # Removing it restores the original pair set (fresh epoch).
            service.remove(new_id)
            restored = service.search(query)
            assert not restored.cached
            assert pairs_as_set(list(restored.pairs)) == pairs_as_set(
                list(before.pairs)
            )

    def test_a_fold_keeps_the_cache_and_a_write_never_fills_it_stale(
        self, small_corpus, monkeypatch
    ):
        def text_of(doc_id, lo, hi):
            return " ".join(
                small_corpus.vocabulary.decode(small_corpus[doc_id].tokens[lo:hi])
            )

        index = Index.open_live(params=PARAMS)
        for doc_id in range(len(small_corpus)):
            index.add(text_of(doc_id, 0, None))
            if doc_id == 2:
                index.flush()  # a segment below, a memtable above
        query = index.encode_query(text_of(0, 10, 40))
        with index.serve() as service:
            first = service.search(query)
            assert not first.cached and first.pairs
            assert service.search(query).cached
            epoch = service.index_epoch
            # A fold changes no pair, so it moves neither the epoch nor
            # the cache.
            assert index.flush() is not None
            assert index.compact() is not None
            again = service.search(query)
            assert again.cached and again.pairs == first.pairs
            assert service.index_epoch == again.index_epoch == epoch
            # A write does: next epoch, a miss, the new document found.
            new_id = index.add(text_of(0, 10, 40))
            after = service.search(query)
            assert not after.cached and service.index_epoch == epoch + 1
            assert any(pair.doc_id == new_id for pair in after.pairs)
            # A write that lands after the request's key was minted and
            # before its search took the read side: the reply is newer
            # than its key, and is not stored under it.
            engine = service.index.searcher()
            search = engine.search
            other = index.encode_query(text_of(2, 30, 60))
            late_ids = []

            def search_after_a_write(*args, **kwargs):
                writer = threading.Thread(
                    target=lambda: late_ids.append(
                        index.add(text_of(2, 30, 60))
                    )
                )
                writer.start()
                writer.join(5)
                return search(*args, **kwargs)

            entries = len(service.cache)
            monkeypatch.setattr(engine, "search", search_after_a_write)
            late = service.search(other)
            monkeypatch.undo()
            assert late.index_epoch == epoch + 1
            assert service.index_epoch == epoch + 2
            assert any(pair.doc_id == late_ids[0] for pair in late.pairs)
            assert len(service.cache) == entries
            fresh = service.search(other)
            assert not fresh.cached and fresh.pairs == late.pairs
            assert service.search(other).cached
        index.close()

    def test_validation(self, searcher):
        with pytest.raises(ConfigurationError):
            SearchService(Index(searcher), max_workers=0)
        with pytest.raises(ConfigurationError):
            SearchService(Index(searcher), max_queue=0)
        with pytest.raises(ConfigurationError):
            SearchService(Index(searcher), cache_size=-1)

    def test_metrics_and_healthz(self, searcher, queries):
        with SearchService(Index(searcher), name="t") as service:
            service.search(queries[0])
            service.search(queries[0])
            snapshot = service.metrics_snapshot()
            counters = snapshot["metrics"]["counters"]
            assert counters["service.requests"] == 2
            assert counters["service.completed"] == 2
            assert counters["service.cache_hits"] == 1
            assert counters["service.cache_misses"] >= 1
            assert "service.request_seconds" in snapshot["metrics"]["timers"]
            health = service.healthz()
            assert health["status"] == "ok"
            assert health["documents"] == 6
        assert service.healthz()["status"] == "closed"

    def test_engine_contract_keywords(self):
        # The serving stack's engine contract: ``cancel=`` on every
        # uncached request, ``routing=`` (the mode) exactly when the
        # request overrides it.
        stub = RecordingSearcher()
        doc = DocumentCollection().add_text("a b c")
        with SearchService(Index(stub), max_workers=1) as service:
            assert not service.search(doc).cached
            assert service.search(doc).cached  # no engine call
            policy = RoutingPolicy(mode="exact")
            assert not service.search(doc, routing=policy).cached
        plain, routed = stub.calls
        assert set(plain) == {"cancel"} and callable(plain["cancel"])
        assert plain["cancel"]() is False
        assert set(routed) == {"cancel", "routing"}
        assert routed["routing"] == "exact"  # the mode, whatever was passed

    def test_search_text_needs_data(self, searcher):
        with SearchService(Index(searcher)) as service:
            with pytest.raises(Exception, match="collection"):
                service.search_text("anything at all")


class TestOneStore:
    """A service writes through the Index it serves: whoever writes
    first, the two share one live store over one collection."""

    W, TAU = 20, 2

    @staticmethod
    def _text(seed: int, length: int = 40) -> str:
        rng = random.Random(seed)
        return " ".join(f"s{seed}w{rng.randrange(60)}" for _ in range(length))

    def _found(self, reply, doc_id: int) -> bool:
        return any(pair.doc_id == doc_id for pair in reply.pairs)

    def test_writes_through_either_front_end_reach_both(self, tmp_path):
        texts = [self._text(seed) for seed in range(6)]
        index = Index.build(texts, w=self.W, tau=self.TAU)
        z, y = self._text(100), self._text(101)
        with index.serve() as service:
            assert service.add(z, name="z") == 6
            assert self._found(index.search_text(z), 6)
            assert index.add(y, name="y") == 7
            assert self._found(service.search_text(y), 7)
            assert service.add(self._text(102)) == 8
            assert len(index.data) == 9 == index.searcher().store.next_doc_id
            counters = service.metrics_snapshot()["metrics"]["counters"]
            assert counters["service.mutations"] == 2  # its own writes
        index.save(tmp_path / "grown.idx")
        with Index.open(tmp_path / "grown.idx") as reopened:
            assert reopened.data.names()[6:8] == ["z", "y"]
            assert self._found(reopened.search_text(z), 6)
            assert self._found(reopened.search_text(y), 7)

    def test_concurrent_first_writes_make_one_store(self, monkeypatch):
        from repro.ingest import IngestStore

        index = Index.build([self._text(seed) for seed in range(6)],
                            w=self.W, tau=self.TAU)
        upgrade = IngestStore.from_searcher.__func__
        upgrades = []

        def slow_upgrade(cls, searcher, data):
            upgrades.append(searcher)
            time.sleep(0.2)  # both writers arrive while the first upgrades
            return upgrade(cls, searcher, data)

        monkeypatch.setattr(IngestStore, "from_searcher", classmethod(slow_upgrade))
        texts = {"index": self._text(200), "service": self._text(201)}
        barrier = threading.Barrier(2)
        ids, errors = {}, []
        with index.serve() as service:
            writers = {"index": index, "service": service}

            def write(door: str) -> None:
                barrier.wait(5)
                try:
                    ids[door] = writers[door].add(texts[door])
                except Exception as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            threads = [threading.Thread(target=write, args=(door,))
                       for door in writers]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
            assert not errors, errors
            assert len(upgrades) == 1
            assert sorted(ids.values()) == [6, 7]
            for door, doc_id in ids.items():
                assert self._found(index.search_text(texts[door]), doc_id)
                assert self._found(service.search_text(texts[door]), doc_id)


class TestConcurrency:
    def test_overload_rejection(self):
        stub = BlockingSearcher()
        service = SearchService(Index(stub), max_workers=1, max_queue=1, cache_size=0)
        try:
            doc = DocumentCollection().add_text("a b c")
            running = service.submit(doc)
            assert stub.started.wait(5), "worker never picked up the request"
            queued = service.submit(doc)
            with pytest.raises(ServiceOverloadError) as excinfo:
                service.submit(doc)
            assert excinfo.value.retry_after > 0
            counters = service.metrics_snapshot()["metrics"]["counters"]
            assert counters["service.rejected"] == 1
            stub.release.set()
            assert len(running.result(5).pairs) == 0
            assert len(queued.result(5).pairs) == 0
        finally:
            stub.release.set()
            service.close()

    def test_deadline_in_queue(self):
        stub = BlockingSearcher()
        service = SearchService(Index(stub), max_workers=1, max_queue=8, cache_size=0)
        try:
            doc = DocumentCollection().add_text("a b c")
            blocker = service.submit(doc)
            assert stub.started.wait(5)
            doomed = service.submit(doc, timeout=0.01)
            time.sleep(0.05)
            stub.release.set()
            blocker.result(5)
            with pytest.raises(DeadlineExceededError):
                doomed.result(5)
            counters = service.metrics_snapshot()["metrics"]["counters"]
            assert counters["service.deadline_exceeded"] == 1
        finally:
            stub.release.set()
            service.close()

    def test_deadline_cancels_mid_search(self):
        service = SearchService(
            Index(CancellableSearcher()), max_workers=1, cache_size=0
        )
        try:
            doc = DocumentCollection().add_text("a b c")
            start = time.monotonic()
            with pytest.raises(DeadlineExceededError, match="windows"):
                service.search(doc, timeout=0.05)
            # The stub alone would run for ~1s; cancellation must stop it
            # well before that.
            assert time.monotonic() - start < 0.75
        finally:
            service.close()

    def test_searcher_cancel_hook_direct(self, searcher, queries):
        with pytest.raises(SearchCancelled):
            searcher.search(queries[0], cancel=lambda: True)
        # A cancel hook that never fires leaves results untouched.
        result = searcher.search(queries[0], cancel=lambda: False)
        assert result.pairs == searcher.search(queries[0]).pairs


class TestLifecycle:
    def test_close_drain_completes_queued(self, searcher, queries):
        service = SearchService(Index(searcher), max_workers=1, cache_size=0)
        futures = [service.submit(q) for q in queries]
        service.close(drain=True)
        for future in futures:
            future.result(5)  # must not raise

    def test_close_abort_fails_queued(self):
        stub = BlockingSearcher()
        service = SearchService(Index(stub), max_workers=1, max_queue=8, cache_size=0)
        doc = DocumentCollection().add_text("a b c")
        service.submit(doc)
        assert stub.started.wait(5)
        queued = service.submit(doc)
        stub.release.set()
        service.close(drain=False)
        with pytest.raises(ServiceClosedError):
            queued.result(5)

    def test_submit_after_close(self, searcher, queries):
        service = SearchService(Index(searcher))
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(queries[0])


class TestHTTP:
    @pytest.fixture
    def server(self, small_corpus, searcher):
        with SearchService(Index(searcher, small_corpus), max_workers=2) as service:
            with serving(serve_http(service, port=0)) as httpd:
                yield httpd

    def test_healthz(self, server):
        health = remote_healthz(server.url)
        assert health["status"] == "ok"
        assert health["documents"] == 6

    def test_search_roundtrip_and_cache(self, server, small_corpus):
        text = " ".join(
            small_corpus.vocabulary.decode(small_corpus[0].tokens[10:40])
        )
        first = remote_search(server.url, text)
        second = remote_search(server.url, text)
        assert first["num_pairs"] > 0
        assert first["pairs"] == second["pairs"]
        assert not first["cached"] and second["cached"]

    def test_keep_alive_replies_do_not_wait_for_delayed_ack(
        self, server, small_corpus
    ):
        # With Nagle on and a reply in two writes (headers, body), each
        # reply on a reused connection stalled ~40 ms on the delayed ACK.
        import http.client
        import json
        import statistics
        from urllib.parse import urlparse

        text = " ".join(
            small_corpus.vocabulary.decode(small_corpus[0].tokens[10:40])
        )
        body = json.dumps({"text": text})
        url = urlparse(server.url)
        connection = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        try:
            latencies = []
            for _ in range(25):
                started = time.perf_counter()
                connection.request(
                    "POST", "/search", body, {"Content-Type": "application/json"}
                )
                reply = json.loads(connection.getresponse().read())
                latencies.append(time.perf_counter() - started)
            assert reply["cached"] and reply["num_pairs"] > 0
        finally:
            connection.close()
        assert statistics.median(latencies[1:]) < 0.010

    def test_search_by_token_ids(self, server, small_corpus):
        tokens = list(small_corpus[0].tokens[10:40])
        reply = remote_search(server.url, token_ids=tokens)
        assert reply["num_pairs"] > 0

    def test_search_by_token_ids_past_the_vocabulary(self, server, small_corpus, searcher):
        # An id no document holds, however large, ranks as the OOV
        # sentinel does; the order's rank table is not sized by it.
        tokens = list(small_corpus[0].tokens[10:40])
        order = searcher.order
        table, admitted = order._rank_of_token, order.num_admitted
        reply = remote_search(server.url, token_ids=[10**9, *tokens, 2**62])
        oov = remote_search(server.url, token_ids=[-1, *tokens, -1])
        assert reply["num_pairs"] == oov["num_pairs"] > 0
        assert order._rank_of_token is table and order.num_admitted == admitted

    def test_metrics_endpoint(self, server, small_corpus):
        text = " ".join(
            small_corpus.vocabulary.decode(small_corpus[0].tokens[5:35])
        )
        remote_search(server.url, text)
        remote_search(server.url, text)
        metrics = remote_metrics(server.url)["metrics"]
        assert metrics["counters"]["service.cache_hits"] >= 1
        assert metrics["counters"]["service.cache_misses"] >= 1
        assert "service.request_seconds" in metrics["timers"]
        assert metrics["gauges"]["service.queue_capacity"] == 64

    def test_bad_requests(self, server):
        import json
        import urllib.error
        import urllib.request

        with pytest.raises(Exception, match="text"):
            remote_search(server.url, text=None, token_ids=None)
        for path, expected in [("/nope", 404), ("/search", 400)]:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{server.url}{path}")
            assert excinfo.value.code == expected
        request = urllib.request.Request(
            f"{server.url}/search",
            data=b"not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert "invalid JSON" in body["error"]

    @pytest.mark.parametrize(
        "method, path, body, headers",
        [
            ("GET", "/search?q=x&timeout=abc", None, {}),
            ("POST", "/search", '{"token_ids": [1000000000000000000000000000000, 1]}', {}),
            ("POST", "/search", '{"token_ids": [true, 1]}', {}),
            ("POST", "/search", None, {"Content-Length": "-5"}),
            ("POST", "/search", b'\xff\xfe{"text": "a"}', {}),
            ("POST", "/search", b"[" * 200_000, {}),
        ],
        ids=["timeout-abc", "token-id-over-64-bits", "token-id-bool",
             "negative-content-length", "undecodable-body", "nested-body"],
    )
    def test_hostile_input_is_a_typed_400(
        self, server, small_corpus, method, path, body, headers
    ):
        # Each of these used to raise inside the handler thread: the
        # client saw a dropped connection instead of an error reply.
        import http.client
        import json
        from urllib.parse import urlparse

        text = " ".join(
            small_corpus.vocabulary.decode(small_corpus[0].tokens[10:40])
        )
        before = remote_search(server.url, text)
        url = urlparse(server.url)
        connection = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        try:
            connection.request(method, path, body, headers)
            reply = connection.getresponse()
            assert reply.status == 400
            assert json.loads(reply.read())["error"]
        finally:
            connection.close()
        after = remote_search(server.url, text)
        assert before["num_pairs"] > 0 and after["pairs"] == before["pairs"]

    @pytest.mark.parametrize(
        "head, body, statuses",
        [
            (b"this is not http\r\n\r\n", b"", [400]),
            (b"GET /healthz HTTP/2.0\r\n\r\n", b"", [505]),
            (b"GET /healthz HTTP/1." + b"1" * 5000 + b"\r\n\r\n", b"", [400]),
            (b"GET /healthz HTTP/1.1\r\n"
             + b"".join(b"X-%d: v\r\n" % i for i in range(101)) + b"\r\n",
             b"", [431]),
            (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70 * 1024
             + b"\r\n\r\n", b"", [431]),
            (b"GET /healthz HTTP/1.1\r\nX-A: 1\r\n folded\r\n\r\n", b"", [400]),
            (b"POST /search HTTP/1.1\r\nContent-Length: 2\r\n"
             b"Content-Length: 3\r\n\r\n{}", b"", [400]),
            (b"POST /search HTTP/1.1\r\nContent-Length: 21\r\n"
             b"Expect: 100-continue\r\nConnection: close\r\n\r\n",
             b'{"token_ids": [1, 2]}', [100, 200]),
            (b"GET /healthz HTTP/1.1\r\n\r\n"
             b"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n", b"", [200, 404]),
            (b"GET /healthz HTTP/1.0\r\n\r\n", b"", [200]),
        ],
        ids=["garbage-request-line", "http-2", "5000-digit-version", "101-headers",
             "70-KiB-header-line", "obs-fold", "two-content-lengths",
             "expect-100-continue", "pipelined", "http-1.0"],
    )
    def test_hostile_request_heads(
        self, server, small_corpus, head, body, statuses
    ):
        # The request head is split by hand: each case keeps the stdlib's
        # answer (or, for obs-fold and two Content-Lengths, refuses what
        # its email parser let through).  Every case ends with a reply
        # saying ``Connection: close``, and an error reply is JSON.
        import json

        text = " ".join(
            small_corpus.vocabulary.decode(small_corpus[0].tokens[10:40])
        )
        before = remote_search(server.url, text)
        with socket.create_connection(server.server_address[:2], timeout=10) as sock:
            sock.sendall(head)
            received = b""
            if body:  # wait for the interim reply before sending the body
                while b"\r\n\r\n" not in received:
                    chunk = sock.recv(65536)
                    assert chunk, received
                    received += chunk
                assert received.startswith(b"HTTP/1.1 100 ")
                sock.sendall(body)
            received += read_until_eof(sock)
        found = re.findall(rb"HTTP/1\.1 (\d{3}) ", received)
        assert [int(status) for status in found] == statuses, received[:300]
        last_head, _, last_body = received[
            received.rindex(b"HTTP/1.1 "):
        ].partition(b"\r\n\r\n")
        assert b"\r\nConnection: close" in last_head
        if statuses[-1] >= 400:
            assert json.loads(last_body)["error"]
        after = remote_search(server.url, text)
        assert before["num_pairs"] > 0 and after["pairs"] == before["pairs"]

    def test_query_over_the_token_limit_answers_413(self, server, monkeypatch):
        import urllib.error
        import urllib.request

        import repro.service.http as door
        from repro import ReproError

        monkeypatch.setattr(door, "MAX_QUERY_TOKENS", 5)
        for over in ({"token_ids": [1] * 6}, {"text": "a b c d e f"}):
            with pytest.raises(ReproError, match="6 tokens is over 5") as info:
                remote_search(server.url, **over)
            assert info.value.status == 413
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(f"{server.url}/search?q=a+b+c+d+e+f")
        assert info.value.code == 413
        remote_search(server.url, token_ids=[1] * 5)
        counters = remote_metrics(server.url)["metrics"]["counters"]
        assert counters["service.requests"] == 1  # the three 413s never arrived

    def test_a_stalled_body_is_closed_and_its_thread_reused(
        self, server, small_corpus, monkeypatch
    ):
        # With no timeout, each connection that announced a body and sent
        # part of it pinned a handler thread, unanswered, for ever.
        from repro.service.http import ServiceRequestHandler

        assert ServiceRequestHandler.timeout == 30
        monkeypatch.setattr(ServiceRequestHandler, "timeout", 0.2)
        text = " ".join(
            small_corpus.vocabulary.decode(small_corpus[0].tokens[10:40])
        )
        before = remote_search(server.url, text)
        assert wait_for(lambda: len(server._idle) == 1)
        with socket.create_connection(server.server_address[:2], timeout=10) as sock:
            sock.sendall(
                b"POST /search HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 100\r\n\r\n" + b'{"te'
            )
            started = time.monotonic()
            assert read_until_eof(sock) == b""  # closed without a reply
            assert time.monotonic() - started < 1.0
        assert wait_for(lambda: len(server._idle) == 1), "thread did not idle"
        after = remote_search(server.url, text)
        assert after["pairs"] == before["pairs"] and after["cached"]
        assert len(handler_threads(server)) == 1

    def test_oversized_body_closes_the_connection(self, server):
        # The 413 leaves the announced body unread; on a kept-alive
        # connection whatever follows the headers was parsed as the next
        # request (two replies on one socket, a 413 and a 200).
        import socket
        from urllib.parse import urlparse

        from repro.service.http import MAX_BODY_BYTES

        url = urlparse(server.url)
        with socket.create_connection((url.hostname, url.port), timeout=10) as sock:
            sock.sendall(
                b"POST /search HTTP/1.1\r\nHost: x\r\n"
                + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
                + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            received = b""
            while chunk := sock.recv(65536):  # until the server's EOF
                received += chunk
        assert received.startswith(b"HTTP/1.1 413 ")
        assert received.count(b"HTTP/1.1 ") == 1
        assert remote_healthz(server.url)["status"] == "ok"

    def test_http_overload_maps_to_429(self):
        stub = BlockingSearcher()
        data = DocumentCollection()
        data.add_text("a b c d e")
        service = SearchService(Index(stub, data), max_workers=1, max_queue=1,
                                cache_size=0)
        with service, serving(serve_http(service, port=0)) as httpd:
            try:
                results: list = []

                def fire() -> None:
                    try:
                        results.append(remote_search(httpd.url, "a b c"))
                    except Exception as exc:  # noqa: BLE001 - collected below
                        results.append(exc)

                threads = [threading.Thread(target=fire) for _ in range(4)]
                for t in threads:
                    t.start()
                assert stub.started.wait(5)
                time.sleep(0.2)  # let the rest hit the full queue
                stub.release.set()
                for t in threads:
                    t.join()
                overloads = [
                    r for r in results if isinstance(r, ServiceOverloadError)
                ]
                completions = [r for r in results if isinstance(r, dict)]
                assert overloads, "expected at least one 429 rejection"
                assert completions, "expected at least one success"
                assert all(o.retry_after > 0 for o in overloads)
            finally:
                stub.release.set()


class TestHandlerThreads:
    """A handler thread serves one connection after another."""

    def test_sequential_connections_reuse_one_thread(self, small_corpus, searcher):
        with SearchService(Index(searcher, small_corpus)) as service:
            with serving(serve_http(service, port=0)) as server:
                for attempt in range(200):
                    # A handler goes back on the idle list only after the
                    # client holds its reply; a connection that finds no
                    # idle handler gets a thread of its own.
                    assert attempt == 0 or wait_for(lambda: server._idle, 5)
                    assert remote_healthz(server.url)["status"] == "ok"
                assert len(handler_threads(server)) == 1

    def test_concurrent_blocked_requests_get_a_thread_each(self):
        stub = BlockingSearcher()
        data = DocumentCollection()
        data.add_text("a b c d e")
        clients = 8  # more than this host has cores
        service = SearchService(Index(stub, data), max_workers=1, max_queue=clients,
                                cache_size=0)
        results: list = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with service, serving(serve_http(service, port=0)) as server:
                threads = [
                    threading.Thread(
                        target=lambda: results.append(
                            remote_search(server.url, token_ids=[1, 2, 3])
                        )
                    )
                    for _ in range(clients)
                ]
                for thread in threads:
                    thread.start()
                try:
                    assert wait_for(
                        lambda: len(handler_threads(server)) == clients, 5
                    ), len(handler_threads(server))
                finally:
                    stub.release.set()
                for thread in threads:
                    thread.join(10)
                    assert not thread.is_alive()
                assert len(handler_threads(server)) == clients
        finally:
            sys.setswitchinterval(switch)
            stub.release.set()
        assert len(results) == clients
        assert all(reply["num_pairs"] == 0 for reply in results)

    def test_server_close_ends_every_handler_thread(self, small_corpus, searcher):
        import http.client

        with SearchService(Index(searcher, small_corpus)) as service:
            with serving(serve_http(service, port=0)) as server:
                connections = [
                    http.client.HTTPConnection(*server.server_address[:2], timeout=10)
                    for _ in range(3)
                ]
                for connection in connections:  # three at once: three threads
                    connection.request("GET", "/healthz")
                    assert connection.getresponse().read()
                for connection in connections:
                    connection.close()
                assert wait_for(lambda: len(server._idle) == 3)
            assert wait_for(lambda: not handler_threads(server))
