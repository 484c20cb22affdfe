"""Client resilience: retry policy, circuit breaker, retry_after hygiene.

The retry loop and the breaker are tested deterministically by driving
:meth:`ResilientClient._call` with scripted ``send`` callables and fake
``rng``/``clock``/``sleep`` hooks; a final integration class exercises
the real HTTP stack against a scripted in-thread server (429 → 200,
persistent 500s, connection refused) and fault injection inside a live
:class:`SearchService`.
"""

from __future__ import annotations

import json
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro import Index, ReproError, SearchParams, faults
from repro.core.pkwise import PKWiseSearcher
from repro.corpus import DocumentCollection
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ServiceError,
    ServiceOverloadError,
)
from repro.faults import FaultPlan, FaultSpec
from repro.service import SearchService
import repro.service.client as client_module
from repro.service import serve_http
from repro.service.client import (
    CircuitBreaker,
    MIN_RETRY_AFTER,
    ResilientClient,
    _parse_retry_after,
)

from .conftest import FakeClock, serving


@pytest.fixture
def breaker_at(monkeypatch):
    """Set the breaker's threshold (and cooldown) for one test."""

    def set_to(threshold: int, reset: float = 10.0) -> None:
        monkeypatch.setattr(client_module, "FAILURE_THRESHOLD", threshold)
        monkeypatch.setattr(client_module, "BREAKER_RESET", reset)

    return set_to


@pytest.fixture
def no_backoff(monkeypatch):
    monkeypatch.setattr(client_module, "BACKOFF", 0.0)


class ZeroRng:
    """random.Random stand-in whose uniform draw is always the low end."""

    def uniform(self, low: float, high: float) -> float:
        return low


class MaxRng:
    """random.Random stand-in whose uniform draw is always the high end."""

    def uniform(self, low: float, high: float) -> float:
        return high


def make_client(**kwargs) -> tuple[ResilientClient, FakeClock, list[float]]:
    """A ResilientClient with fake time: sleeps advance the clock."""
    clock = FakeClock()
    sleeps: list[float] = []

    def sleep(seconds: float) -> None:
        sleeps.append(seconds)
        clock.advance(seconds)

    kwargs.setdefault("rng", ZeroRng())
    client = ResilientClient(
        "http://test.invalid", clock=clock, sleep=sleep, **kwargs
    )
    return client, clock, sleeps


def http_error(status: int, message: str = "server error") -> ReproError:
    error = ReproError(message)
    error.status = status
    return error


class ScriptedSend:
    """Yields the scripted outcomes in order; exceptions are raised.

    Records the per-attempt socket timeout the retry loop passed in,
    so tests can assert the deadline clamp.
    """

    def __init__(self, outcomes) -> None:
        self.outcomes = list(outcomes)
        self.calls = 0
        self.timeouts: list[float | None] = []

    def __call__(self, timeout=None):
        self.calls += 1
        self.timeouts.append(timeout)
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class TestParseRetryAfter:
    """Satellite fix: malformed retry_after must clamp, never raise."""

    def test_normal_value_passes_through(self):
        assert _parse_retry_after(1.5) == 1.5

    def test_numeric_string_parses(self):
        assert _parse_retry_after("2.5") == 2.5

    @pytest.mark.parametrize("bad", [-1.0, -0.001, 0.0, "0", 1e-9])
    def test_nonpositive_clamps_to_floor(self, bad):
        assert _parse_retry_after(bad) == MIN_RETRY_AFTER

    @pytest.mark.parametrize(
        "junk", [None, "soon", "", [], {}, "nan?", object()]
    )
    def test_non_numeric_falls_back_to_default(self, junk):
        assert _parse_retry_after(junk, default=1.25) == 1.25

    @pytest.mark.parametrize("weird", ["nan", "inf", "-inf", float("nan")])
    def test_non_finite_falls_back_to_default(self, weird):
        assert _parse_retry_after(weird, default=0.75) == 0.75


class TestCircuitBreaker:
    @pytest.fixture(autouse=True)
    def _breaker_settings(self, breaker_at):
        self.breaker_at = breaker_at

    def make(self, threshold: int = 3, reset_after: float = 10.0):
        self.breaker_at(threshold, reset_after)
        clock = FakeClock()
        return CircuitBreaker(clock=clock), clock

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _clock = self.make(threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError) as info:
            breaker.allow()
        assert info.value.retry_after == pytest.approx(10.0)

    def test_success_resets_the_count(self):
        breaker, _clock = self.make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_then_close(self):
        breaker, clock = self.make(threshold=1, reset_after=10.0)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(10.0)
        breaker.allow()  # the probe is admitted
        assert breaker.state == "half-open"
        with pytest.raises(CircuitOpenError):
            breaker.allow()  # concurrent request while probe in flight
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        breaker, clock = self.make(threshold=1, reset_after=10.0)
        breaker.record_failure()
        clock.advance(10.0)
        breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.allow()  # cooldown restarted
        clock.advance(10.0)
        breaker.allow()
        assert breaker.state == "half-open"

    def test_retry_after_counts_down(self):
        breaker, clock = self.make(threshold=1, reset_after=10.0)
        breaker.record_failure()
        clock.advance(4.0)
        with pytest.raises(CircuitOpenError) as info:
            breaker.allow()
        assert info.value.retry_after == pytest.approx(6.0)


class TestCircuitBreakerConcurrency:
    """Real threads hammering one breaker: the lock must hold its story."""

    def _contend(self, workers: int, action) -> list:
        """Run ``action()`` on ``workers`` threads released together."""
        barrier = threading.Barrier(workers)
        results: list = [None] * workers
        def run(slot: int) -> None:
            barrier.wait()
            results[slot] = action()
        threads = [
            threading.Thread(target=run, args=(slot,))
            for slot in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results

    def test_half_open_admits_exactly_one_probe(self, breaker_at):
        clock = FakeClock()
        breaker_at(1)
        breaker = CircuitBreaker(clock=clock)
        breaker.record_failure()
        clock.advance(10.0)

        def try_allow() -> str:
            try:
                breaker.allow()
            except CircuitOpenError:
                return "rejected"
            return "admitted"

        results = self._contend(16, try_allow)
        assert results.count("admitted") == 1
        assert breaker.state == "half-open"

    def test_concurrent_failures_during_half_open_single_trip(self, breaker_at):
        # The probe fails while stale in-flight requests also report
        # failures: the breaker must land in one clean "open" cooldown,
        # and the eventual successful probe must fully reset the
        # failure count (no leftover ghost failures from the pile-up).
        clock = FakeClock()
        breaker_at(3)
        breaker = CircuitBreaker(clock=clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        breaker.allow()  # the probe
        assert breaker.state == "half-open"
        self._contend(16, breaker.record_failure)
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError) as info:
            breaker.allow()  # cooldown restarted by the (single) re-trip
        assert info.value.retry_after == pytest.approx(10.0)
        clock.advance(10.0)
        breaker.allow()  # next probe
        breaker.record_success()
        assert breaker.state == "closed"
        # Counter consistency: the pile-up left nothing behind — it
        # still takes a full threshold of fresh failures to re-open.
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"

    def test_closed_state_failure_counting_is_atomic(self, breaker_at):
        # N racing failures with threshold N must trip exactly at the
        # threshold — a lost update would leave the breaker closed.
        clock = FakeClock()
        breaker_at(16)
        breaker = CircuitBreaker(clock=clock)
        self._contend(16, breaker.record_failure)
        assert breaker.state == "open"

    def test_mixed_allow_and_failure_race_keeps_state_legal(self, breaker_at):
        # Interleave admissions and failures from many threads; the
        # breaker must always be in exactly one legal state and never
        # raise anything but CircuitOpenError.
        clock = FakeClock()
        breaker_at(4, 0.0)
        breaker = CircuitBreaker(clock=clock)

        def hammer() -> None:
            for _ in range(50):
                try:
                    breaker.allow()
                except CircuitOpenError:
                    breaker.record_failure()
                else:
                    breaker.record_success()

        self._contend(8, hammer)
        assert breaker.state in ("closed", "open", "half-open")
        breaker.record_success()
        assert breaker.state == "closed"


class TestRetryPolicy:
    def test_success_first_try(self):
        client, _clock, sleeps = make_client(retries=3)
        send = ScriptedSend([{"ok": True}])
        assert client._call(send) == {"ok": True}
        assert send.calls == 1
        assert sleeps == []

    def test_overload_then_success_honors_retry_after(self):
        client, _clock, sleeps = make_client(retries=3)
        send = ScriptedSend(
            [
                ServiceOverloadError("busy", retry_after=0.2),
                {"ok": True},
            ]
        )
        assert client._call(send) == {"ok": True}
        assert send.calls == 2
        assert sleeps == [pytest.approx(0.2)]
        assert client.breaker.state == "closed"

    def test_overload_is_breaker_neutral(self, breaker_at):
        breaker_at(2)
        client, _clock, _sleeps = make_client(retries=5)
        send = ScriptedSend(
            [ServiceOverloadError("busy", retry_after=0.05)] * 4 + [{"ok": 1}]
        )
        assert client._call(send) == {"ok": 1}
        assert client.breaker.state == "closed"

    def test_5xx_retries_and_counts_toward_breaker(self):
        client, _clock, _sleeps = make_client(retries=2)
        send = ScriptedSend([http_error(500), http_error(502), {"ok": 1}])
        assert client._call(send) == {"ok": 1}
        assert send.calls == 3

    def test_5xx_exhausted_raises_last_error(self):
        client, _clock, _sleeps = make_client(retries=2)
        send = ScriptedSend([http_error(500, f"fail {i}") for i in range(3)])
        with pytest.raises(ReproError, match="fail 2"):
            client._call(send)
        assert send.calls == 3

    def test_4xx_raises_immediately_without_retry(self):
        client, _clock, _sleeps = make_client(retries=5)
        send = ScriptedSend([http_error(400, "bad request")])
        with pytest.raises(ReproError, match="bad request"):
            client._call(send)
        assert send.calls == 1

    def test_connect_error_wrapped_and_retried(self):
        client, _clock, _sleeps = make_client(retries=1)
        send = ScriptedSend([urllib.error.URLError("refused"), {"ok": 1}])
        assert client._call(send) == {"ok": 1}

    def test_connect_errors_open_the_breaker(self, breaker_at):
        breaker_at(3)
        client, _clock, _sleeps = make_client(retries=5)
        send = ScriptedSend([urllib.error.URLError("refused")] * 6)
        with pytest.raises(CircuitOpenError):
            client._call(send)
        # Three real attempts happened before the breaker started
        # failing fast.
        assert send.calls == 3
        assert client.breaker.state == "open"

    def test_deadline_exhaustion_raises_typed_error(self):
        client, _clock, _sleeps = make_client(retries=50, deadline=1.0)
        send = ScriptedSend(
            [ServiceOverloadError("busy", retry_after=0.4)] * 51
        )
        with pytest.raises(DeadlineExceededError, match="deadline") as info:
            client._call(send)
        assert isinstance(info.value.__cause__, ServiceOverloadError)
        # 1.0s budget at 0.4s per sleep: attempts at t=0, .4, .8 then stop.
        assert send.calls == 3

    def test_backoff_envelope_is_exponential_and_capped(self, monkeypatch):
        monkeypatch.setattr(client_module, "BACKOFF", 0.1)
        monkeypatch.setattr(client_module, "BACKOFF_CAP", 0.35)
        clock = FakeClock()
        sleeps: list[float] = []

        def sleep(seconds: float) -> None:
            sleeps.append(seconds)
            clock.advance(seconds)

        client = ResilientClient(
            "http://test.invalid",
            retries=4,
            deadline=None,
            rng=MaxRng(),
            clock=clock,
            sleep=sleep,
        )
        send = ScriptedSend([http_error(500)] * 4 + [{"ok": 1}])
        assert client._call(send) == {"ok": 1}
        assert sleeps == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.35),
            pytest.approx(0.35),
        ]

    def test_retries_zero_means_single_attempt(self):
        client, _clock, _sleeps = make_client(retries=0)
        send = ScriptedSend([http_error(500, "only try")])
        with pytest.raises(ReproError, match="only try"):
            client._call(send)
        assert send.calls == 1

    def test_client_request_fault_point(self):
        faults.install_plan(
            FaultPlan(
                [FaultSpec(point="client.request", kind="raise")]
            )
        )
        client, _clock, _sleeps = make_client(retries=0)
        send = ScriptedSend([{"ok": 1}])
        with pytest.raises(Exception, match="client.request"):
            client._call(send)
        assert send.calls == 0  # injected before the wire

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="retries"):
            ResilientClient("http://x", retries=-1)


class TestProbeResolvesTheBreaker:
    """Every half-open probe resolves the breaker: a reply (a 4xx, a
    429) closes it, any other exception re-opens it, so it can never
    stay half-open and refuse every later call."""

    def open_client(self, breaker_at, *, retries: int):
        breaker_at(1, 10.0)
        client, clock, _sleeps = make_client(retries=retries)
        with pytest.raises(ReproError):
            client._call(ScriptedSend([http_error(503)] * (retries + 1)))
        assert client.breaker.state == "open"
        clock.advance(10.0)  # the next call is the probe
        return client, clock

    def test_4xx_probe_closes_the_breaker(self, breaker_at):
        client, _clock = self.open_client(breaker_at, retries=0)
        with pytest.raises(ReproError, match="bad request"):
            client._call(ScriptedSend([http_error(400, "bad request")]))
        assert client.breaker.state == "closed"
        assert client._call(ScriptedSend([{"ok": 1}])) == {"ok": 1}

    def test_429_probe_closes_the_breaker_and_its_retry_is_sent(
        self, breaker_at
    ):
        client, _clock = self.open_client(breaker_at, retries=3)
        send = ScriptedSend(
            [ServiceOverloadError("busy", retry_after=0.05), {"ok": 1}]
        )
        assert client._call(send) == {"ok": 1}
        assert send.calls == 2
        assert client._call(ScriptedSend([{"ok": 2}])) == {"ok": 2}

    def test_timed_out_probe_reopens_the_breaker(self, breaker_at):
        client, clock = self.open_client(breaker_at, retries=0)
        with pytest.raises(TimeoutError):
            client._call(ScriptedSend([TimeoutError("read timed out")]))
        assert client.breaker.state == "open"
        clock.advance(10.0)
        assert client._call(ScriptedSend([{"ok": 1}])) == {"ok": 1}
        assert client.breaker.state == "closed"


class TestDeadlineClamp:
    """Satellite fix: per-attempt socket timeout honors the deadline budget."""

    def test_socket_timeout_clamped_to_remaining_budget(self):
        client, clock, _sleeps = make_client(retries=10, deadline=5.0)
        send = ScriptedSend([urllib.error.URLError("hang")] * 10)
        original_call = send.__call__

        def slow_call(timeout=None):
            clock.advance(2.0)  # each attempt burns 2s of wall clock
            return original_call(timeout)

        with pytest.raises(DeadlineExceededError, match="deadline"):
            client._call(slow_call)
        # 5s budget at 2s per attempt: timeouts 5 → 3 → 1, then the
        # fourth attempt is refused before sending (budget < 0).
        assert send.calls == 3
        assert send.timeouts == [
            pytest.approx(5.0),
            pytest.approx(3.0),
            pytest.approx(1.0),
        ]

    def test_hung_attempt_cannot_blow_budget_by_http_timeout(self):
        # A scripted slow server exceeds the deadline mid-attempt: the
        # old behavior would send again with the full 30s socket
        # timeout; now the follow-up attempt raises *before* sending.
        client, clock, _sleeps = make_client(retries=5, deadline=5.0)
        send = ScriptedSend([urllib.error.URLError("slow")] * 6)
        original_call = send.__call__

        def hung_call(timeout=None):
            clock.advance(6.0)  # hangs past the whole deadline
            return original_call(timeout)

        with pytest.raises(DeadlineExceededError) as info:
            client._call(hung_call)
        assert send.calls == 1
        # The single attempt got the full (clamped) 5s, not 30s.
        assert send.timeouts == [pytest.approx(5.0)]
        assert isinstance(info.value.__cause__, ServiceError)

    def test_no_deadline_passes_http_timeout_through(self):
        client, _clock, _sleeps = make_client(retries=0, deadline=None)
        send = ScriptedSend([{"ok": 1}])
        assert client._call(send) == {"ok": 1}
        assert send.timeouts == [pytest.approx(client_module.HTTP_TIMEOUT)]

    def test_budget_exactly_exhausted_raises_before_sending(self):
        # The server's retry_after hint lands exactly on the deadline:
        # honoring it would eat the whole budget, so the loop must
        # raise *before* sleeping — no nap it can never wake up from
        # usefully, no second send.
        client, _clock, sleeps = make_client(retries=5, deadline=1.0)
        send = ScriptedSend([ServiceOverloadError("busy", retry_after=1.0)] * 2)
        with pytest.raises(DeadlineExceededError):
            client._call(send)
        assert send.calls == 1
        assert sleeps == []

    def test_backoff_sleep_clamped_to_remaining_budget(self, monkeypatch):
        # A huge server hint cannot be honored, but a plain backoff
        # sleep that merely *overshoots* the budget is clamped so the
        # final attempt still gets its slice of the deadline.
        monkeypatch.setattr(client_module, "BACKOFF", 10.0)  # first delay 10s
        monkeypatch.setattr(client_module, "BACKOFF_CAP", 10.0)
        client, clock, sleeps = make_client(retries=1, deadline=1.0, rng=MaxRng())
        send = ScriptedSend(
            [http_error(500), http_error(500), http_error(500)]
        )
        start = clock.now
        with pytest.raises(ReproError):
            client._call(send)
        assert send.calls == 2  # the clamped sleep left room to retry
        assert len(sleeps) == 1
        assert sleeps[0] <= 1.0  # never past the deadline
        assert clock.now - start <= 1.0 + 1e-9


class ScriptedHandler(BaseHTTPRequestHandler):
    """Serves a scripted list of (status, body) responses in order.

    A ``bytes`` body is sent verbatim (for malformed-JSON scripts);
    anything else is JSON-encoded.
    """

    script: list[tuple[int, object]] = []
    lock = threading.Lock()

    def _reply(self) -> None:
        with self.lock:
            status, body = (
                self.script.pop(0) if self.script else (200, {"ok": True})
            )
        if isinstance(body, bytes):
            payload = body
        else:
            payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        self._reply()

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler API)
        if self.headers.get("Content-Length"):
            self.rfile.read(int(self.headers["Content-Length"]))
        self._reply()

    def log_message(self, *args) -> None:
        pass


@pytest.fixture
def scripted_server():
    """An in-thread HTTP server replaying ScriptedHandler.script."""
    with serving(ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)) as server:
        try:
            yield f"http://127.0.0.1:{server.server_address[1]}"
        finally:
            ScriptedHandler.script = []


@pytest.mark.usefixtures("no_backoff")
class TestClientOverHTTP:
    def test_429_then_200_within_deadline(self, scripted_server):
        ScriptedHandler.script = [
            (429, {"error": "overloaded", "retry_after": 0.05}),
            (429, {"error": "overloaded", "retry_after": "garbage"}),
            (200, {"status": "ok"}),
        ]
        sleeps: list[float] = []
        client = ResilientClient(
            scripted_server, retries=5, deadline=10.0, sleep=sleeps.append
        )
        assert client.healthz() == {"status": "ok"}
        # Each wait honors its hint; a garbage hint falls back to 1 s.
        assert sleeps == [pytest.approx(0.05), pytest.approx(1.0)]

    def test_persistent_5xx_opens_breaker(self, scripted_server, breaker_at):
        breaker_at(3, 60.0)
        ScriptedHandler.script = [(503, {"error": "down"})] * 10
        client = ResilientClient(scripted_server, retries=8, deadline=10.0)
        with pytest.raises(CircuitOpenError):
            client.healthz()
        assert client.breaker.state == "open"
        # Subsequent calls fail fast without touching the network.
        with pytest.raises(CircuitOpenError):
            client.healthz()

    def test_unreachable_server_raises_service_error(self):
        client = ResilientClient("http://127.0.0.1:9", retries=1, deadline=5.0)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.healthz()

    def test_garbage_200_body_is_retried_then_succeeds(self, scripted_server):
        # Satellite fix: a 200 with a non-JSON body must be classified
        # as a retryable transport fault, not leak json.JSONDecodeError.
        ScriptedHandler.script = [
            (200, b"<<<truncated garbage"),
            (200, {"status": "ok"}),
        ]
        client = ResilientClient(scripted_server, retries=3, deadline=10.0)
        assert client.healthz() == {"status": "ok"}

    def test_persistent_garbage_body_surfaces_typed(self, scripted_server):
        ScriptedHandler.script = [(200, b"not json at all")] * 4
        client = ResilientClient(scripted_server, retries=2, deadline=10.0)
        with pytest.raises(ServiceError, match="malformed JSON") as info:
            client.healthz()
        assert getattr(info.value, "status", None) == 502

    def test_non_dict_200_body_surfaces_typed(self, scripted_server):
        ScriptedHandler.script = [(200, [1, 2, 3])] * 2
        client = ResilientClient(scripted_server, retries=1, deadline=10.0)
        with pytest.raises(ServiceError, match="JSON object") as info:
            client.healthz()
        assert getattr(info.value, "status", None) == 502


class TestResultCacheEpochScan:
    """Satellite fix: one stale-entry scan per epoch advance, not per put."""

    def test_single_scan_per_epoch_burst(self):
        from repro.service.cache import ResultCache

        cache = ResultCache(capacity=64)
        for i in range(10):
            cache.put((f"q{i}", "p", 0), (i,))
        assert cache.invalidations == 0
        # First insert at the new epoch purges every stale entry...
        cache.put(("q0", "p", 1), (0,))
        assert cache.invalidations == 10
        # ...and the rest of the same-epoch burst never rescans.
        for i in range(1, 10):
            cache.put((f"q{i}", "p", 1), (i,))
        assert cache.invalidations == 10
        assert len(cache) == 10

    def test_stale_epoch_straggler_purged_on_next_advance(self):
        from repro.service.cache import ResultCache

        cache = ResultCache(capacity=64)
        cache.put(("a", "p", 1), (1,))
        # A straggler insert at an older epoch triggers no scan...
        cache.put(("late", "p", 0), (0,))
        assert cache.invalidations == 0
        assert len(cache) == 2
        # ...but the next epoch advance sweeps both dead entries.
        cache.put(("b", "p", 2), (2,))
        assert cache.invalidations == 2
        assert len(cache) == 1

    def test_len_is_lock_safe_and_counts_entries(self):
        from repro.service.cache import ResultCache

        cache = ResultCache(capacity=4)
        assert len(cache) == 0
        for i in range(6):
            cache.put((f"q{i}", "p", 0), (i,))
        assert len(cache) == 4  # LRU evicted down to capacity
        assert cache.evictions == 2


@pytest.mark.usefixtures("no_backoff")
class TestServiceFaultPoint:
    def test_injected_service_fault_surfaces_as_500_and_client_retries(self):
        data = DocumentCollection()
        data.add_tokens([f"w{i % 7}" for i in range(40)])
        searcher = PKWiseSearcher(data, SearchParams(w=8, tau=2, k_max=2))
        faults.install_plan(
            FaultPlan(
                [
                    FaultSpec(
                        point="service.request", kind="raise", max_triggers=1
                    )
                ]
            )
        )
        with SearchService(Index(searcher, data), max_workers=2) as service:
            with serving(serve_http(service, port=0)) as httpd:
                client = ResilientClient(httpd.url, retries=3, deadline=10.0)
                # First attempt hits the injected fault (HTTP 500), the
                # retry succeeds once the single trigger is spent.
                reply = client.search(token_ids=list(data[0].tokens[:10]))
                assert "pairs" in reply
