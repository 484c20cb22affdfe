"""Tests for sharded serving: plans (service.plan), router parity, faults."""

from __future__ import annotations

import json
import threading

import pytest

from repro import (
    ConfigurationError,
    FaultPlan,
    FaultSpec,
    Index,
    PKWiseSearcher,
    SearchParams,
    ServiceError,
    faults,
)
from repro.errors import ServiceClosedError
from repro.eval.harness import canonical_pair_order
from repro.persistence import generation_name, load_bundle
from repro.service import (
    ResilientClient,
    SearchService,
    remote_healthz,
    remote_search,
    serve_http,
)
from repro.service.client import _request
from repro.service.plan import MANIFEST_NAME, ShardPlan, partition_ranges
from repro.service.router import LocalShardBackend, ShardRouter

PARAMS = SearchParams(w=10, tau=2, k_max=3)


@pytest.fixture(autouse=True)
def _clear_fault_plan():
    yield
    faults.clear_plan()


@pytest.fixture
def query(small_corpus):
    """A query cut from doc 0 — matches docs 0 and 3 (different shards)."""
    tokens = small_corpus[0].tokens[8:38]
    words = small_corpus.vocabulary.decode(tokens)
    return small_corpus.encode_query_tokens(words, name="cross-shard")


def expected_pairs(corpus, query):
    searcher = PKWiseSearcher(corpus, PARAMS)
    return canonical_pair_order(list(searcher.search(query).pairs))


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
class TestRouterParity:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_local_router_matches_single_index(
        self, small_corpus, query, shards
    ):
        single = expected_pairs(small_corpus, query)
        assert single, "fixture query must produce matches"
        with ShardRouter.local(
            small_corpus, PARAMS, shards=shards
        ) as router:
            response = router.search(query)
            assert list(response.pairs) == single
            assert not response.partial
            cached = router.search(query)
            assert cached.cached
            assert list(cached.pairs) == single

    @pytest.mark.parametrize("shards", [1, 3])
    def test_snapshot_router_matches_single_index(
        self, small_corpus, query, tmp_path, shards
    ):
        # A plan's snapshot files behind in-process services: what the
        # worker processes map, without spawning them.
        single = expected_pairs(small_corpus, query)
        plan = ShardPlan.build(small_corpus, PARAMS, tmp_path, num_shards=shards)
        backends = []
        for spec in plan.shards:
            bundle = load_bundle(tmp_path / spec.path, mmap=True)
            backends.append(
                LocalShardBackend(
                    SearchService(bundle.searcher, bundle.data),
                    shard_id=spec.shard_id,
                    doc_lo=spec.doc_lo,
                    doc_hi=spec.doc_hi,
                )
            )
        with ShardRouter(backends, small_corpus) as router:
            assert list(router.search(query).pairs) == single

    def test_index_serve_shards_facade(self, small_corpus, query):
        index = Index.build(
            [
                " ".join(small_corpus.vocabulary.decode(doc.tokens))
                for doc in small_corpus
            ],
            params=PARAMS,
        )
        single = canonical_pair_order(list(index.search(query)))
        with index.serve(shards=3) as router:
            assert router.num_shards == 3
            assert list(router.search(query).pairs) == single

    def test_http_round_trip(self, small_corpus, query):
        single = expected_pairs(small_corpus, query)
        with ShardRouter.local(small_corpus, PARAMS, shards=3) as router:
            server = serve_http(router, port=0)
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            try:
                health = remote_healthz(server.url)
                assert health["status"] == "ok"
                assert health["num_shards"] == 3
                reply = remote_search(
                    server.url, token_ids=list(query.tokens)
                )
                assert [tuple(p) for p in reply["pairs"]] == [
                    tuple(p) for p in single
                ]
                assert "partial" not in reply
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)


# ----------------------------------------------------------------------
class TestPartialResults:
    def test_dead_shard_reports_partial(self, small_corpus, query):
        single = expected_pairs(small_corpus, query)
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
            server = serve_http(router, port=0)
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            try:
                reply = remote_search(
                    server.url, token_ids=list(query.tokens)
                )
                assert reply["partial"] is True
                assert reply["failures"][0]["position"] == 0
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)

    def test_closed_router_raises(self, small_corpus, query):
        router = ShardRouter.local(small_corpus, PARAMS, shards=2)
        router.close()
        with pytest.raises(ServiceClosedError):
            router.search(query)


# ----------------------------------------------------------------------
class TestHedging:
    def test_hedge_covers_one_slow_shard(self, small_corpus, query):
        single = expected_pairs(small_corpus, query)
        # The first scatter attempt for shard 0 sleeps well past the
        # hedge trigger; the hedge (second attempt) finds the fault
        # exhausted and answers promptly.
        faults.install_plan(
            FaultPlan(
                [
                    FaultSpec(
                        point="shards.scatter",
                        kind="delay",
                        match={"shard": 0},
                        delay_seconds=0.5,
                        max_triggers=1,
                    )
                ]
            )
        )
        with ShardRouter.local(
            small_corpus, PARAMS, shards=3, hedge_after=0.05
        ) as router:
            response = router.search(query)
            assert not response.partial
            assert [tuple(p) for p in response.pairs] == [
                tuple(p) for p in single
            ]
            metrics = router.metrics_snapshot()["metrics"]
            assert metrics["counters"]["router.hedges"] >= 1


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
        single = expected_pairs(small_corpus, query)
        with ShardRouter.local(small_corpus, PARAMS, shards=2) as router:
            server = serve_http(router, port=0)
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            try:
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
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)


def test_service_public_names():
    """The plan/router/workers split exports what ``shards.py`` did."""
    import importlib

    import repro.service

    assert sorted(repro.service.__all__) == sorted(
        [
            "SearchService",
            "ServiceFuture",
            "ServiceResponse",
            "ResultCache",
            "CacheKey",
            "query_token_hash",
            "ServiceHTTPServer",
            "ServiceRequestHandler",
            "serve_http",
            "remote_search",
            "remote_healthz",
            "remote_metrics",
            "ResilientClient",
            "CircuitBreaker",
            "ShardPlan",
            "ShardSpec",
            "ShardRouter",
            "ShardSupervisor",
            "ReplicaSet",
            "RouterResponse",
            "LocalShardBackend",
            "HTTPShardBackend",
            "ShardWorker",
            "partition_ranges",
            "spawn_one_worker",
            "spawn_shard_workers",
            "stop_shard_workers",
            "backends_for_workers",
        ]
    )
    for name in repro.service.__all__:
        assert hasattr(repro.service, name), name
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.service.shards")
