"""Tests for sharded serving: plans (service.plan), the router's cache, faults,
the read-only door.  Its pairs are ``test_exactness.py``'s sharded and
replicated cells."""

from __future__ import annotations

import json
import threading
import tracemalloc

import pytest

from repro import (
    ConfigurationError,
    Index,
    RoutingPolicy,
    SearchParams,
    faults,
    make_profile_collection,
)
from repro.core.pkwise import PKWiseSearcher
from repro.corpus import DocumentCollection
from repro.errors import ServiceClosedError, ServiceError
from repro.faults import FaultPlan, FaultSpec
from repro.persistence import generation_name
from repro.service import SearchService, serve_http
from repro.service.client import (
    ResilientClient,
    _request,
    remote_healthz,
    remote_search,
)
from repro.service.plan import MANIFEST_NAME, ShardPlan, partition_ranges
from repro.service.router import LocalShardBackend, ShardRouter

from .conftest import expected_pairs, serving

PARAMS = SearchParams(w=10, tau=2, k_max=3)


def single_pairs(corpus, query):
    """What one index returns, in canonical order: the reference pairs."""
    return sorted(expected_pairs(corpus, query, PARAMS.w, PARAMS.tau))


def plan_pairs(directory, plan, corpus, query):
    """``query``'s pairs from ``plan``'s shard files, behind a router that
    encodes against ``corpus``."""
    backends = [
        LocalShardBackend(
            SearchService(Index.open(directory / spec.path)),
            shard_id=spec.shard_id, doc_lo=spec.doc_lo, doc_hi=spec.doc_hi,
        )
        for spec in plan.shards
    ]
    with ShardRouter(backends, corpus) as router:
        return list(router.search(query).pairs)


# ----------------------------------------------------------------------
class TestPartitionRanges:
    def test_equal_sizes_tile_evenly(self):
        assert partition_ranges([10] * 6, 3) == [(0, 2), (2, 4), (4, 6)]

    def test_token_weight_balances_ranges(self):
        # One huge document gets its own shard; the tail splits evenly.
        assert partition_ranges([30, 1, 1, 1, 1, 1], 3) == [
            (0, 1),
            (1, 4),
            (4, 6),
        ]

    def test_single_shard_covers_corpus(self):
        assert partition_ranges([5, 5, 5], 1) == [(0, 3)]

    def test_ranges_always_tile_and_are_nonempty(self):
        sizes = [3, 90, 1, 1, 40, 2, 2, 60, 5]
        for num_shards in range(1, len(sizes) + 1):
            ranges = partition_ranges(sizes, num_shards)
            assert ranges[0][0] == 0
            assert ranges[-1][1] == len(sizes)
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo
            assert all(hi > lo for lo, hi in ranges)

    def test_rejects_bad_shard_counts(self):
        with pytest.raises(ConfigurationError):
            partition_ranges([1, 1], 0)
        with pytest.raises(ConfigurationError):
            partition_ranges([1, 1], 3)


# ----------------------------------------------------------------------
class TestShardPlan:
    def test_build_save_load_round_trip(self, small_corpus, tmp_path):
        plan = ShardPlan.build(
            small_corpus, PARAMS, tmp_path, num_shards=3
        )
        assert (tmp_path / MANIFEST_NAME).exists()
        assert plan.num_shards == 3
        assert plan.num_documents == len(small_corpus)
        for spec in plan.shards:
            assert spec.path == generation_name(
                f"shard-{spec.shard_id:03d}", 1
            )
            assert (tmp_path / spec.path).exists()
        loaded = ShardPlan.load(tmp_path)
        assert loaded.shards == plan.shards
        assert loaded.generation == plan.generation
        loaded.validate()

    def test_ensure_reuses_compatible_manifest(self, small_corpus, tmp_path):
        first = ShardPlan.build(small_corpus, PARAMS, tmp_path, num_shards=3)
        mtimes = {
            spec.path: (tmp_path / spec.path).stat().st_mtime_ns
            for spec in first.shards
        }
        again = ShardPlan.ensure(
            small_corpus, PARAMS, tmp_path, num_shards=3
        )
        assert again.shards == first.shards
        for spec in again.shards:
            assert (tmp_path / spec.path).stat().st_mtime_ns == mtimes[
                spec.path
            ]

    def test_ensure_rebuilds_on_shard_count_change(
        self, small_corpus, tmp_path
    ):
        ShardPlan.build(small_corpus, PARAMS, tmp_path, num_shards=3)
        rebuilt = ShardPlan.ensure(
            small_corpus, PARAMS, tmp_path, num_shards=2
        )
        assert rebuilt.num_shards == 2
        assert ShardPlan.load(tmp_path).num_shards == 2

    def test_ensure_rebuilds_a_plan_of_another_corpus_of_the_same_size(
        self, small_corpus, query, tmp_path
    ):
        # The same documents in another order: same size, same parameters.
        # Shard files are ids-only, so serving the old plan would answer
        # the router's token ids from the old documents; ensure compares
        # the corpus digest in shards.json, and rebuilds a plan without one.
        old = ShardPlan.build(small_corpus, PARAMS, tmp_path, num_shards=2)
        rotated = DocumentCollection(vocabulary=small_corpus.vocabulary)
        for document in [*small_corpus][1:] + [small_corpus[0]]:
            rotated.add_token_ids(document.tokens)
        want = single_pairs(rotated, query)
        assert want != single_pairs(small_corpus, query)
        plan = ShardPlan.ensure(rotated, PARAMS, tmp_path, num_shards=2)
        assert plan_pairs(tmp_path, plan, rotated, query) == want
        assert plan.digest != old.digest
        payload = json.loads((tmp_path / MANIFEST_NAME).read_text())
        del payload["digest"]
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(payload))
        assert ShardPlan.load(tmp_path).digest is None
        assert ShardPlan.ensure(rotated, PARAMS, tmp_path, num_shards=2) == plan
        assert ShardPlan.load(tmp_path) == plan

    def test_opening_a_shard_file_builds_no_per_token_object(self, tmp_path):
        # A shard of the serve-sharded corpus (|V| = 10,518): ids-only, its
        # order two narrow arrays, its index columns mapped in place.
        # Opening one allocated 2.32 MB when each shard file pickled the
        # collection's vocabulary and the order's tables as int lists.
        data = make_profile_collection("REUTERS", scale=0.1, seed=7)[0]
        params = SearchParams(w=25, tau=5, k_max=4)
        path = tmp_path / ShardPlan.build(data, params, tmp_path, num_shards=2).shards[0].path
        Index.open(path, mmap=True).close()  # imports and first-call caches
        tracemalloc.start()
        try:
            index = Index.open(path, mmap=True)
            allocated = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert index.data is None
        assert allocated < 0.25 * 2**20, allocated

    @pytest.mark.parametrize(
        "damage",
        [
            lambda payload: {
                key: payload[key] for key in ("format", "version")
            },
            lambda payload: {**payload, "num_documents": "many", "shards": 5},
        ],
        ids=["missing-keys", "wrong-types"],
    )
    def test_damaged_manifest_is_typed_and_rebuilt(
        self, small_corpus, tmp_path, damage
    ):
        # Valid JSON, right format tag, structurally damaged: load must
        # raise the typed error ensure() catches, and ensure() rebuild.
        built = ShardPlan.build(small_corpus, PARAMS, tmp_path, num_shards=2)
        manifest = tmp_path / MANIFEST_NAME
        manifest.write_text(json.dumps(damage(json.loads(manifest.read_text()))))
        with pytest.raises(ConfigurationError, match=MANIFEST_NAME):
            ShardPlan.load(tmp_path)
        rebuilt = ShardPlan.ensure(small_corpus, PARAMS, tmp_path, num_shards=2)
        assert rebuilt.shards == built.shards
        assert ShardPlan.load(tmp_path).shards == built.shards

    def test_generation_name_format(self):
        assert generation_name("shard-001", 7) == "shard-001.g000007.idx"
        with pytest.raises(ValueError):
            generation_name("shard-001", 0)


# ----------------------------------------------------------------------
class TestPartialResults:
    def test_dead_shard_reports_partial(self, small_corpus, query):
        single = single_pairs(small_corpus, query)
        with ShardRouter.local(small_corpus, PARAMS, shards=3) as router:
            dead = router.backends[1]
            lo, hi = dead.doc_lo, dead.doc_hi
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
            assert failure.query_name.endswith("@shard-001")
            assert failure.error_type == "FaultInjectionError"
            survivors = [
                tuple(p) for p in single if not lo <= p[0] < hi
            ]
            assert [tuple(p) for p in response.pairs] == survivors

    def test_all_shards_down_raises(self, small_corpus, query):
        with ShardRouter.local(small_corpus, PARAMS, shards=3) as router:
            faults.install_plan(
                FaultPlan(
                    [FaultSpec(point="shards.scatter", kind="raise")]
                )
            )
            with pytest.raises(ServiceError) as excinfo:
                router.search(query)
            assert len(excinfo.value.failures) == 3

    def test_http_partial_reply_shape(self, small_corpus, query):
        with ShardRouter.local(small_corpus, PARAMS, shards=3) as router:
            faults.install_plan(
                FaultPlan(
                    [
                        FaultSpec(
                            point="shards.scatter",
                            kind="raise",
                            match={"shard": 0},
                        )
                    ]
                )
            )
            with serving(serve_http(router, port=0)) as server:
                reply = remote_search(
                    server.url, token_ids=list(query.tokens)
                )
                assert reply["partial"] is True
                assert reply["failures"][0]["position"] == 0

    def test_closed_router_raises(self, small_corpus, query):
        router = ShardRouter.local(small_corpus, PARAMS, shards=2)
        router.close()
        with pytest.raises(ServiceClosedError):
            router.search(query)


# ----------------------------------------------------------------------
class CountingBackend(LocalShardBackend):
    """A real in-process shard that counts its searches, can be taken
    down, and can run a hook while the router is gathering."""

    calls = 0
    down = False
    during_search = None

    def search(self, query, *, timeout, routing=None):
        self.calls += 1
        if self.during_search is not None:
            hook, self.during_search = self.during_search, None
            hook()
        if self.down:
            raise ServiceError(f"shard {self.shard_id} is down")
        return super().search(query, timeout=timeout, routing=routing)


def counting_backend(corpus, shard_id, lo, hi):
    # No result cache, as a shard behind a router runs.
    subset = corpus.subset(range(lo, hi))
    service = SearchService(Index(PKWiseSearcher(subset, PARAMS), subset), cache_size=0)
    return CountingBackend(service, shard_id=shard_id, doc_lo=lo, doc_hi=hi)


def counting_router(corpus, shards=2, **kwargs):
    ranges = partition_ranges([len(doc) for doc in corpus], shards)
    backends = [
        counting_backend(corpus, shard_id, lo, hi)
        for shard_id, (lo, hi) in enumerate(ranges)
    ]
    return ShardRouter(backends, corpus, **kwargs), backends


def router_counters(router):
    return router.metrics_snapshot()["metrics"]["counters"]


class TestRouterCache:
    def test_repeat_is_answered_without_a_sub_request(self, small_corpus, query):
        single = single_pairs(small_corpus, query)
        router, backends = counting_router(small_corpus)
        with router:
            first = router.search(query)
            assert [b.calls for b in backends] == [1, 1]
            assert not first.cached and list(first.pairs) == single
            again = router.search(query)
            assert [b.calls for b in backends] == [1, 1]
            assert again.cached and not again.partial
            assert list(again.pairs) == single
            assert again.index_epoch == first.index_epoch
            assert again.shard_epochs == first.shard_epochs
            snapshot = router.metrics_snapshot()["metrics"]
            assert snapshot["counters"]["router.cache_hits"] == 1
            assert snapshot["counters"]["router.cache_misses"] == 1
            assert snapshot["counters"]["router.cache_evictions"] == 0
            assert snapshot["counters"]["router.cache_invalidations"] == 0
            assert snapshot["counters"]["router.completed"] == 2
            assert snapshot["gauges"]["router.cache_entries"] == 1
            # The shards saw one lookup each: the hit never reached them.
            assert snapshot["counters"]["service.cache_hits"] == 0
            assert snapshot["counters"]["service.cache_misses"] == 4
            assert router.healthz()["cache_entries"] == 1

    def test_routing_modes_are_separate_entries(self, small_corpus, query):
        single = single_pairs(small_corpus, query)
        router, backends = counting_router(small_corpus)
        with router:
            for routing in (None, "exact"):
                response = router.search(query, routing=routing)
                assert not response.cached
                assert list(response.pairs) == single
            assert [b.calls for b in backends] == [2, 2]
            assert len(router.cache) == 2
            for routing in (None, "exact", RoutingPolicy(mode="exact")):
                assert router.search(query, routing=routing).cached
            assert [b.calls for b in backends] == [2, 2]
            with pytest.raises(ConfigurationError):
                router.search(query, routing="approx")

    def test_partial_is_not_stored_and_the_retry_re_scatters(
        self, small_corpus, query
    ):
        single = single_pairs(small_corpus, query)
        router, backends = counting_router(small_corpus)
        with router:
            backends[1].down = True
            for asked in (1, 2):
                partial = router.search(query)
                assert partial.partial and len(partial.failures) == 1
                assert not partial.cached
                assert [b.calls for b in backends] == [asked, asked], (
                    "a partial must re-scatter to every shard"
                )
                assert len(router.cache) == 0
            # The healthy shard searched the repeat again: no tier below
            # the router holds an answer.
            counters = router_counters(router)
            assert counters["service.cache_hits"] == 0
            assert counters["service.completed"] == 2
            backends[1].down = False
            complete = router.search(query)
            assert not complete.partial and list(complete.pairs) == single
            assert [b.calls for b in backends] == [3, 3]
            assert len(router.cache) == 1
            assert router.search(query).cached
            assert [b.calls for b in backends] == [3, 3]
            assert router_counters(router)["router.partial_responses"] == 2

    def test_stored_reply_outlives_dead_shards(self, small_corpus, query):
        single = single_pairs(small_corpus, query)
        router, backends = counting_router(small_corpus)
        with router:
            router.search(query)
            for backend in backends:
                backend.down = True
            response = router.search(query)
            assert response.cached and not response.partial
            assert list(response.pairs) == single
            other = small_corpus.encode_query_tokens(
                small_corpus.vocabulary.decode(small_corpus[1].tokens[:30])
            )
            with pytest.raises(ServiceError):
                router.search(other)

    def test_replace_replica_invalidates(self, small_corpus, query):
        single = single_pairs(small_corpus, query)
        router, backends = counting_router(small_corpus)
        with router:
            router.search(query)
            assert router.search(query).cached
            fresh = counting_backend(
                small_corpus, 0, backends[0].doc_lo, backends[0].doc_hi
            )
            router.replace_replica(0, 0, fresh)
            response = router.search(query)
            assert not response.cached and list(response.pairs) == single
            assert (fresh.calls, backends[1].calls) == (1, 2)
            assert router_counters(router)["router.cache_invalidations"] == 1
            assert len(router.cache) == 1
            assert router.search(query).cached
            backends[0].close()

    def test_replacement_during_a_gather_is_not_stored(self, small_corpus, query):
        # The key is minted before the scatter; a replica replaced while
        # the gather runs may have answered from either generation.
        router, backends = counting_router(small_corpus)
        with router:
            fresh = counting_backend(
                small_corpus, 0, backends[0].doc_lo, backends[0].doc_hi
            )
            backends[1].during_search = lambda: router.replace_replica(0, 0, fresh)
            assert not router.search(query).partial
            assert len(router.cache) == 0
            assert not router.search(query).partial
            assert (fresh.calls, backends[1].calls) == (1, 2)
            assert len(router.cache) == 1
            backends[0].close()

    def test_cache_size_zero_scatters_every_time(self, small_corpus, query):
        router, backends = counting_router(small_corpus, cache_size=0)
        with router:
            for asked in (1, 2, 3):
                router.search(query)
                assert [b.calls for b in backends] == [asked, asked]
            counters = router_counters(router)
            assert counters["router.cache_hits"] == 0
            assert counters["router.cache_misses"] == 3
            assert len(router.cache) == 0

    def test_cache_size_sizes_the_router_tier_only(self, small_corpus):
        for size, expected in ((0, 0), (None, 256), (8, 8)):
            kwargs = {} if size is None else {"cache_size": size}
            with ShardRouter.local(
                small_corpus, PARAMS, shards=2, replicas=2, **kwargs
            ) as router:
                assert router.cache.capacity == expected
                assert [
                    backend.service.cache.capacity
                    for rset in router.replica_sets
                    for backend in rset.replicas
                ] == [0] * 4

    def test_lru_bound_and_evictions(self, small_corpus):
        queries = [
            small_corpus.encode_query_tokens(
                small_corpus.vocabulary.decode(small_corpus[doc].tokens[5:35])
            )
            for doc in (0, 1, 2)
        ]
        router, backends = counting_router(small_corpus, cache_size=2)
        with router:
            for query in queries:
                router.search(query)
            assert len(router.cache) == 2
            assert router_counters(router)["router.cache_evictions"] == 1
            assert router.search(queries[2]).cached
            assert backends[0].calls == 3
            router.search(queries[0])  # evicted: scatters again
            assert backends[0].calls == 4

    def test_concurrent_callers_share_the_tier(self, small_corpus):
        import sys

        queries = [
            small_corpus.encode_query_tokens(
                small_corpus.vocabulary.decode(small_corpus[doc].tokens[5:35])
            )
            for doc in (0, 1, 2, 3)
        ]
        expected = [single_pairs(small_corpus, query) for query in queries]
        router, _backends = counting_router(small_corpus, cache_size=2)
        wrong: list = []

        def ask(offset: int) -> None:
            for turn in range(40):
                which = (offset + turn) % len(queries)
                pairs = list(router.search(queries[which]).pairs)
                if pairs != expected[which]:
                    wrong.append(which)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with router:
                threads = [
                    threading.Thread(target=ask, args=(n,)) for n in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                counters = router_counters(router)
        finally:
            sys.setswitchinterval(interval)
        assert not wrong
        assert counters["router.cache_hits"] + counters["router.cache_misses"] == 240
        assert counters["router.completed"] == 240
        assert len(router.cache) <= 2

    @pytest.mark.parametrize("tier", ["service", "router"])
    @pytest.mark.parametrize("reuse", [False, True], ids=["no-pairs", "many-pairs"])
    def test_http_hit_body_equals_miss_body(self, tier, reuse, monkeypatch):
        # Two long documents sharing all their text: asking for that
        # text returns > 1,000 pairs, asking for unseen words none.
        words = [f"w{(7 * i * i + 3 * i) % 97}" for i in range(320)]
        corpus = DocumentCollection()
        for tokens in (words, [f"x{i % 89}" for i in range(200)], words):
            corpus.add_tokens(tokens)
        text = " ".join(words if reuse else [f"unseen{i}" for i in range(40)])
        if tier == "service":
            service = SearchService(Index(PKWiseSearcher(corpus, PARAMS), corpus))
        else:
            service = ShardRouter.local(corpus, PARAMS, shards=2)
        encoded = []
        dumps = json.dumps

        def counting_dumps(value, *args, **kwargs):
            if isinstance(value, (tuple, list)):
                encoded.append(len(value))
            return dumps(value, *args, **kwargs)

        with service:
            single = single_pairs(corpus, corpus.encode_query(text))
            assert (len(single) > 1000) if reuse else not single
            with serving(serve_http(service, port=0)) as server:
                monkeypatch.setattr(json, "dumps", counting_dumps)
                try:
                    miss, hit, hit_again = (
                        remote_search(server.url, text) for _ in range(3)
                    )
                finally:
                    monkeypatch.undo()
        assert not miss["cached"] and hit["cached"] and hit_again["cached"]
        assert [tuple(pair) for pair in miss["pairs"]] == [tuple(p) for p in single]
        assert miss["num_pairs"] == len(single)
        for reply in (miss, hit, hit_again):
            del reply["cached"], reply["seconds"]
        assert hit == miss and hit_again == miss
        # One entry, one encoding: the pairs met json.dumps once per
        # process that holds them (the in-process shards are SearchServices
        # called directly, not over HTTP).
        assert encoded == [len(single)]

    def test_http_partial_reply_is_never_a_hit(self, small_corpus, query):
        single = single_pairs(small_corpus, query)
        router, backends = counting_router(small_corpus)
        backends[0].down = True
        lo, hi = backends[0].doc_lo, backends[0].doc_hi
        survivors = [list(p) for p in single if not lo <= p[0] < hi]
        with router:
            with serving(serve_http(router, port=0)) as server:
                for asked in (1, 2):
                    reply = remote_search(
                        server.url, token_ids=list(query.tokens)
                    )
                    assert reply["partial"] is True
                    assert reply["failures"][0]["position"] == 0
                    assert reply["pairs"] == survivors
                    assert reply["num_pairs"] == len(survivors)
                    assert backends[1].calls == asked
                assert remote_healthz(server.url)["cache_entries"] == 0


# ----------------------------------------------------------------------
class TestRouterIsReadOnly:
    @pytest.mark.parametrize(
        "path, body",
        [("/ingest", {"text": "alpha beta gamma"}), ("/remove", {"doc_id": 0})],
        ids=["ingest", "remove"],
    )
    def test_write_verbs_answer_405_and_serving_continues(
        self, small_corpus, query, path, body
    ):
        single = single_pairs(small_corpus, query)
        with ShardRouter.local(small_corpus, PARAMS, shards=2) as router:
            with serving(serve_http(router, port=0)) as server:
                sent = []

                def send(http_timeout):
                    sent.append(path)
                    return _request(
                        f"{server.url}{path}", body, timeout=http_timeout
                    )

                client = ResilientClient(server.url, retries=3)
                with pytest.raises(ServiceError, match="repro serve --live") as info:
                    client._call(send)
                assert info.value.status == 405
                assert sent == [path], "a 405 must not be retried"
                reply = remote_search(
                    server.url, token_ids=list(query.tokens)
                )
                assert [tuple(p) for p in reply["pairs"]] == [
                    tuple(p) for p in single
                ]
                assert "partial" not in reply  # a whole reply says nothing
                health = remote_healthz(server.url)
                assert (health["status"], health["num_shards"]) == ("ok", 2)

    def test_query_over_the_token_limit_answers_413(
        self, small_corpus, query, monkeypatch
    ):
        import repro.service.http as door
        from repro import ReproError

        single = single_pairs(small_corpus, query)
        monkeypatch.setattr(door, "MAX_QUERY_TOKENS", len(query.tokens))
        with ShardRouter.local(small_corpus, PARAMS, shards=2) as router:
            with serving(serve_http(router, port=0)) as server:
                with pytest.raises(ReproError, match="tokens is over") as info:
                    remote_search(server.url, token_ids=list(query.tokens) * 2)
                assert info.value.status == 413
                assert "router.requests" not in router_counters(router)
                reply = remote_search(server.url, token_ids=list(query.tokens))
                assert [tuple(p) for p in reply["pairs"]] == [
                    tuple(p) for p in single
                ]


def test_service_public_names():
    """The plan/router/workers split exports what its callers import."""
    import importlib

    import repro.service

    assert sorted(repro.service.__all__) == sorted(
        [
            "SearchService",
            "serve_http",
            "ShardPlan",
            "ShardRouter",
            "ShardSupervisor",
            "WorkerLauncher",
            "spawn_shard_workers",
            "stop_shard_workers",
            "backends_for_workers",
        ]
    )
    for name in repro.service.__all__:
        assert hasattr(repro.service, name), name
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.service.shards")
