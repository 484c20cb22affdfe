"""Tests for repro.obs: metrics registry, span tracer, and the
SearchStats-on-registry refactor (merge semantics, snapshot round-trips).
Serial and pooled merged counters are equal field for field in every
pooled cell of ``test_exactness.py``."""

from __future__ import annotations

import json

import pytest

from repro import SearchParams
from repro.core.base import STAT_COUNTER_FIELDS, STAT_TIMER_FIELDS, SearchStats
from repro.core.pkwise import PKWiseSearcher
from repro.corpus import DocumentCollection
from repro.eval import run_searcher
from repro.obs import (
    MetricsRegistry,
    configure_tracing,
    disable_tracing,
    get_tracer,
)
from repro.obs.registry import ObservabilityError
from repro.obs.trace import Tracer


class TestRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("ops").inc()
        registry.counter("ops").inc(41)
        assert registry.counter("ops").value == 42

    def test_timer_accumulates_and_times(self):
        registry = MetricsRegistry()
        registry.timer("phase").add(0.25)
        with registry.timer("phase").time():
            pass
        assert registry.timer("phase").seconds >= 0.25

    def test_gauge_holds_level(self):
        registry = MetricsRegistry()
        registry.gauge("skew").set(1.5)
        registry.gauge("skew").set(1.2)
        assert registry.gauge("skew").value == 1.2

    def test_type_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ObservabilityError):
            registry.timer("x")
        with pytest.raises(ObservabilityError):
            registry.gauge("x")

    def test_snapshot_is_sorted_and_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc(1)
        registry.counter("alpha").inc(2)
        registry.timer("t").add(0.5)
        registry.gauge("g").set(3.0)
        snap = json.loads(json.dumps(registry.snapshot()))
        assert list(snap["counters"]) == ["alpha", "zeta"]
        assert snap["timers"] == {"t": 0.5}
        assert snap["gauges"] == {"g": 3.0}

    def test_snapshot_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(7)
        registry.timer("t").add(1.5)
        registry.gauge("g").set(2.0)
        rebuilt = MetricsRegistry.from_snapshot(registry.snapshot())
        assert rebuilt.snapshot() == registry.snapshot()

    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        a.timer("t").add(0.5)
        b.timer("t").add(0.25)
        a.gauge("g").set(1.0)
        b.gauge("g").set(3.0)
        a.merge(b)
        assert a.counter("c").value == 3  # counters sum
        assert a.timer("t").seconds == 0.75  # timers sum
        assert a.gauge("g").value == 3.0  # gauges max

    def test_merge_is_order_independent(self):
        def build(values):
            registry = MetricsRegistry()
            for name, count in values:
                registry.counter(name).inc(count)
            return registry

        parts = [build([("a", 1), ("b", 2)]), build([("b", 5)]), build([("a", 3)])]
        forward = MetricsRegistry()
        for part in parts:
            forward.merge(part)
        backward = MetricsRegistry()
        for part in reversed(parts):
            backward.merge(part)
        assert forward.snapshot() == backward.snapshot()

    def test_malformed_snapshot_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.merge_snapshot({"bogus_kind": {"x": 1}})
        with pytest.raises(ObservabilityError):
            registry.merge_snapshot({"counters": [1, 2]})
        with pytest.raises(ObservabilityError):
            registry.merge_snapshot("nope")


class TestSearchStatsOnRegistry:
    def make_stats(self, scale=1):
        stats = SearchStats()
        for offset, name in enumerate(STAT_COUNTER_FIELDS):
            setattr(stats, name, (offset + 1) * scale)
        for offset, name in enumerate(STAT_TIMER_FIELDS):
            setattr(stats, name, (offset + 1) * 0.5 * scale)
        return stats

    def test_registry_round_trip_is_lossless(self):
        stats = self.make_stats()
        assert SearchStats.from_registry(stats.to_registry()) == stats
        via_wire = MetricsRegistry.from_snapshot(stats.snapshot())
        assert SearchStats.from_registry(via_wire) == stats

    def test_merge_equals_registry_merge(self):
        left, right = self.make_stats(1), self.make_stats(3)
        via_stats = self.make_stats(1)
        via_stats.merge(right)
        registry = left.to_registry()
        registry.merge_snapshot(right.snapshot())
        assert SearchStats.from_registry(registry) == via_stats

    def test_phase_seconds_names_the_phases(self):
        phases = self.make_stats().phase_seconds()
        assert set(phases) == {"routing", "signature", "candidate", "verify"}


@pytest.fixture
def reuse_corpus():
    data = DocumentCollection()
    base = [f"t{i % 23}" for i in range(150)]
    data.add_tokens(base)
    data.add_tokens(base[40:100] + [f"u{i}" for i in range(60)])
    data.add_tokens([f"v{i}" for i in range(90)] + base[10:50])
    queries = [data[0], data[1], data.encode_query_tokens(base[20:80])]
    return data, queries


class TestTracer:
    def test_disabled_tracer_is_noop_and_reusable(self):
        tracer = Tracer()
        assert not tracer.enabled
        first = tracer.span("a")
        second = tracer.span("b", attr=1)
        assert first is second  # the shared null span: no allocation
        with first as entered:
            entered.annotate(more=2)

    def test_span_events_form_a_tree(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(str(path))
        with tracer.span("root", kind="outer"):
            with tracer.span("child") as child:
                child.annotate(items=3)
        tracer.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [event["name"] for event in events] == ["child", "root"]
        child_event, root_event = events
        assert child_event["parent_id"] == root_event["span_id"]
        assert child_event["depth"] == 1
        assert root_event["parent_id"] is None
        assert child_event["attrs"] == {"items": 3}
        assert root_event["duration"] >= child_event["duration"] >= 0.0

    def test_span_records_errors(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(str(path))
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        tracer.close()
        (event,) = [json.loads(line) for line in path.read_text().splitlines()]
        assert event["error"] == "ValueError"

    def test_default_tracer_configure_and_disable(self, tmp_path):
        path = tmp_path / "default.jsonl"
        configure_tracing(str(path))
        try:
            assert get_tracer().enabled
            with get_tracer().span("configured"):
                pass
        finally:
            disable_tracing()
        assert not get_tracer().enabled
        assert "configured" in path.read_text()

    def test_search_emits_spans_when_enabled(self, tmp_path, reuse_corpus):
        data, queries = reuse_corpus
        searcher = PKWiseSearcher(data, SearchParams(w=12, tau=3, k_max=2))
        path = tmp_path / "search.jsonl"
        configure_tracing(str(path))
        try:
            run_searcher(searcher, queries)
        finally:
            disable_tracing()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        names = [event["name"] for event in events]
        assert names.count("pkwise.search") == len(queries)
        assert "workload.serial" in names
        search_events = [e for e in events if e["name"] == "pkwise.search"]
        for event in search_events:
            assert {"signature", "candidate", "verify"} <= set(event["attrs"])

    def test_search_results_unchanged_by_tracing(self, tmp_path, reuse_corpus):
        data, queries = reuse_corpus
        searcher = PKWiseSearcher(data, SearchParams(w=12, tau=3, k_max=2))
        baseline = [searcher.search(query).sorted_pairs() for query in queries]
        configure_tracing(str(tmp_path / "t.jsonl"))
        try:
            traced = [searcher.search(query).sorted_pairs() for query in queries]
        finally:
            disable_tracing()
        assert traced == baseline
