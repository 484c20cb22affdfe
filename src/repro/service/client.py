"""Stdlib client for a running :mod:`repro.service` HTTP server.

Deliberately minimal — ``urllib`` only, blocking — so scripts, the CI
smoke job, and ``repro query --server`` need no HTTP dependency.
Server-side errors surface as the same typed exceptions the in-process
service raises (429 → :class:`~repro.errors.ServiceOverloadError`,
504 → :class:`~repro.errors.DeadlineExceededError`, 405 →
:class:`~repro.errors.ServiceError`), so callers can share retry logic
between local and remote use.

Two layers:

* The one-shot functions (:func:`remote_search`, :func:`remote_healthz`,
  :func:`remote_metrics`) — one HTTP round trip, no retries.
* :class:`ResilientClient` — the production wrapper: retries with
  capped exponential backoff and **full jitter**, honoring the server's
  ``retry_after`` hint; a **deadline budget** bounding the total time
  spent across attempts; and a small **circuit breaker** that fails
  fast (:class:`~repro.errors.CircuitOpenError`) after a run of
  consecutive connect/5xx failures, re-probing the server with a single
  half-open request once a cooldown passes.  Mirrored on the command
  line by ``repro query --retries/--timeout``.
"""

from __future__ import annotations

import math
import random
import threading
import time
import urllib.error
import urllib.request
from collections.abc import Sequence

import json

from .. import faults
from ..errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
)
from ..routing import RoutingPolicy

#: Floor for server-supplied ``retry_after`` hints: a malformed,
#: negative, or zero value must never turn the retry loop into a
#: busy-wait hammering an overloaded server.
MIN_RETRY_AFTER = 0.05

#: Smallest deadline budget (seconds) worth spending on one more
#: attempt.  A backoff sleep is clamped so at least this much budget
#: survives it; when even that much is gone — or the server's
#: ``retry_after`` hint cannot fit inside the remaining budget — the
#: retry loop raises *before* sleeping instead of burning the tail of
#: the budget on a nap it can never wake up from usefully.
MIN_ATTEMPT_BUDGET = 0.01

#: Retry backoff envelope (seconds): attempt *n* sleeps a uniform draw
#: from ``[0, min(BACKOFF_CAP, BACKOFF * 2**(n-1))]`` — full jitter.
BACKOFF = 0.1
BACKOFF_CAP = 2.0

#: Socket timeout of one attempt (seconds), before the deadline clamp.
HTTP_TIMEOUT = 30.0

#: Circuit breaker: consecutive failures that open it, and the seconds
#: it stays open before one half-open probe is let through.
FAILURE_THRESHOLD = 5
BREAKER_RESET = 30.0


def _parse_retry_after(value, default: float = 1.0) -> float:
    """A sane ``retry_after`` from an untrusted response body.

    Non-numeric values fall back to ``default`` (the error path must
    never raise ``ValueError`` itself); numeric ones clamp to at least
    :data:`MIN_RETRY_AFTER`.
    """
    try:
        parsed = float(value)
    except (TypeError, ValueError):
        return default
    if not math.isfinite(parsed):
        return default
    return max(MIN_RETRY_AFTER, parsed)


def _typed_http_error(code: int, message: str, body: dict) -> ReproError:
    """Map an HTTP status to this library's exception family.

    The original status travels on the ``status`` attribute so retry
    policies can distinguish server faults (5xx) from caller mistakes
    (4xx) without re-parsing messages.
    """
    error: ReproError
    if code == 429:
        error = ServiceOverloadError(
            message, retry_after=_parse_retry_after(body.get("retry_after"))
        )
    elif code == 504:
        error = DeadlineExceededError(message)
    elif code == 503:
        error = ServiceClosedError(message)
    elif code == 405:
        # e.g. a write sent to a read-only shard router: the tier, not
        # the request body, is wrong — and no retry will change that.
        error = ServiceError(message)
    else:
        error = ReproError(message)
    error.status = code
    return error


def _request(url: str, payload: dict | None = None, timeout: float = 30.0) -> dict:
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            raw = response.read()
    except urllib.error.HTTPError as exc:
        try:
            body = json.loads(exc.read())
        except (json.JSONDecodeError, ValueError):
            body = {}
        if not isinstance(body, dict):
            body = {}
        message = body.get("error", f"HTTP {exc.code}")
        raise _typed_http_error(exc.code, message, body) from exc
    # A 200 whose body is not a JSON object is a transport-level fault
    # (truncated proxy response, wrong endpoint, mid-restart garbage) —
    # surface it typed with a 5xx status so retry policies treat it like
    # any other server fault instead of leaking json.JSONDecodeError.
    try:
        parsed = json.loads(raw)
    except (json.JSONDecodeError, ValueError) as exc:
        error = ServiceError(f"malformed JSON body from {url}: {exc}")
        error.status = 502
        raise error from exc
    if not isinstance(parsed, dict):
        error = ServiceError(
            f"expected a JSON object from {url}, "
            f"got {type(parsed).__name__}"
        )
        error.status = 502
        raise error
    return parsed


def remote_search(
    base_url: str,
    text: str | None = None,
    *,
    token_ids: Sequence[int] | None = None,
    timeout: float | None = None,
    routing=None,
    http_timeout: float = 30.0,
) -> dict:
    """POST one query to ``{base_url}/search`` and return the reply dict.

    Exactly one of ``text`` / ``token_ids`` must be given.  ``timeout``
    is the *service-side* deadline forwarded in the request body;
    ``http_timeout`` bounds the socket.  ``routing`` (a mode string or
    a :class:`~repro.RoutingPolicy`) is the per-request routing
    override; its mode is what the body carries.
    """
    if (text is None) == (token_ids is None):
        raise ValueError("pass exactly one of text= or token_ids=")
    payload: dict = {"timeout": timeout}
    if text is not None:
        payload["text"] = text
    else:
        payload["token_ids"] = list(token_ids)
    if routing is not None:
        payload["routing"] = RoutingPolicy.from_dict(routing).mode
    return _request(f"{base_url.rstrip('/')}/search", payload, timeout=http_timeout)


def remote_healthz(base_url: str, http_timeout: float = 10.0) -> dict:
    """GET ``{base_url}/healthz``."""
    return _request(f"{base_url.rstrip('/')}/healthz", timeout=http_timeout)


def remote_metrics(base_url: str, http_timeout: float = 10.0) -> dict:
    """GET ``{base_url}/metrics`` (a MetricsRegistry snapshot envelope)."""
    return _request(f"{base_url.rstrip('/')}/metrics", timeout=http_timeout)


class CircuitBreaker:
    """Consecutive-failure circuit breaker (closed → open → half-open).

    *Closed* passes every request through, counting consecutive
    failures; at :data:`FAILURE_THRESHOLD` it *opens* and :meth:`allow`
    fails fast with :class:`~repro.errors.CircuitOpenError` for
    :data:`BREAKER_RESET` seconds.  The first request after the cooldown
    runs as the *half-open* probe — a reply closes the circuit
    (:meth:`record_success`, :meth:`record_reply`), a failure re-opens
    it and restarts the cooldown; concurrent requests keep failing fast
    while the probe is in flight.  Thread-safe.
    """

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half-open"``."""
        with self._lock:
            return self._state

    def allow(self) -> None:
        """Admit one request or raise :class:`CircuitOpenError`."""
        with self._lock:
            if self._state == "closed":
                return
            if self._state == "open":
                elapsed = self._clock() - self._opened_at
                if elapsed >= BREAKER_RESET:
                    self._state = "half-open"
                    return  # this caller is the probe
                raise CircuitOpenError(
                    f"circuit breaker open after {self._failures} consecutive "
                    f"failures; next probe in "
                    f"{BREAKER_RESET - elapsed:.2f}s",
                    retry_after=max(MIN_RETRY_AFTER, BREAKER_RESET - elapsed),
                )
            # half-open: one probe is already in flight
            raise CircuitOpenError(
                "circuit breaker half-open; waiting on the probe request",
                retry_after=MIN_RETRY_AFTER,
            )

    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._failures = 0

    def record_reply(self) -> None:
        """A reply the server is not at fault for (a 4xx, a 429): it ends
        a half-open probe as a success and leaves a closed count alone."""
        with self._lock:
            if self._state == "half-open":
                self._state = "closed"
                self._failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._state == "half-open" or self._failures >= FAILURE_THRESHOLD:
                self._state = "open"
                self._opened_at = self._clock()


class ResilientClient:
    """Retrying, deadline-bounded, circuit-broken HTTP client.

    Parameters
    ----------
    base_url:
        Server root, e.g. ``"http://127.0.0.1:8080"``.
    retries:
        Re-attempts after the first try (``3`` = at most four round
        trips per call).  Attempt *n* sleeps a full-jitter draw under
        the :data:`BACKOFF` / :data:`BACKOFF_CAP` envelope, but never
        less than the server's clamped ``retry_after`` hint when one
        came back.
    deadline:
        Total wall-clock budget (seconds) per call across every attempt
        and backoff sleep; exceeding it raises
        :class:`~repro.errors.DeadlineExceededError` chaining the last
        transport error.  ``None`` = unbounded.  The budget is enforced
        *per attempt*, not just between them: each attempt's socket
        timeout is clamped to ``min(HTTP_TIMEOUT, remaining budget)``,
        so a single hung connection can overrun the deadline by at most
        one socket-timeout resolution — never by :data:`HTTP_TIMEOUT`
        multiples — and an attempt whose budget is already spent raises
        before sending rather than firing a doomed request.  Backoff
        sleeps are clamped the same way: a sleep never eats the budget
        slice (:data:`MIN_ATTEMPT_BUDGET`) reserved for the attempt
        after it, and when the remaining budget cannot cover another
        attempt at all — or the server's ``retry_after`` hint does not
        fit inside it — the loop raises *before* sleeping instead of
        discovering the exhausted budget on wake-up.
    rng / clock / sleep:
        Injection points for deterministic tests.

    What retries: connection-level failures (``URLError``), 5xx
    responses, and 429 overload (honoring ``retry_after``).  What does
    not: other 4xx responses (the request itself is wrong),
    :class:`CircuitOpenError` (the point of the breaker is *not*
    sending), and transport faults outside ``URLError`` (a read
    timeout, a dropped connection).  Connect/5xx failures and those
    transport faults count toward the breaker; an answering server (a
    4xx, or 429 overload) neither trips it nor resets a closed count,
    but ends a half-open probe as a success — so a probe always
    resolves the breaker, and it can never stay half-open.
    """

    def __init__(
        self,
        base_url: str,
        *,
        retries: int = 3,
        deadline: float | None = 30.0,
        rng: random.Random | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.base_url = base_url.rstrip("/")
        self.retries = retries
        self.deadline = deadline
        self.breaker = CircuitBreaker(clock=clock)
        self._rng = rng if rng is not None else random.Random()
        self._clock = clock
        self._sleep = sleep

    # ------------------------------------------------------------------
    def _delay(self, attempt: int, hint: float | None) -> float:
        """Full-jitter exponential backoff, floored by the server hint."""
        envelope = min(BACKOFF_CAP, BACKOFF * (2 ** (attempt - 1)))
        delay = self._rng.uniform(0.0, envelope)
        if hint is not None:
            delay = max(delay, hint)
        return delay

    def _call(self, send):
        """Run ``send(http_timeout)`` under the retry policy and breaker.

        ``send`` receives the per-attempt socket timeout:
        :data:`HTTP_TIMEOUT` clamped to whatever remains of the deadline
        budget, so no single attempt can sleep past the deadline.
        """
        deadline_at = (
            None if self.deadline is None else self._clock() + self.deadline
        )
        attempt = 0
        last_error: Exception | None = None
        while True:
            self.breaker.allow()
            http_timeout = HTTP_TIMEOUT
            if deadline_at is not None:
                remaining = deadline_at - self._clock()
                if remaining <= 0:
                    raise DeadlineExceededError(
                        f"client deadline ({self.deadline}s) exhausted "
                        f"after {attempt} attempt(s): "
                        f"{last_error or 'no attempt sent'}"
                    ) from last_error
                http_timeout = min(http_timeout, remaining)
            faults.inject("client.request", attempt=attempt)
            hint: float | None = None
            try:
                result = send(http_timeout)
            except ServiceOverloadError as exc:
                # The server is alive, just busy: retry after its hint.
                self.breaker.record_reply()
                last_error = exc
                hint = _parse_retry_after(exc.retry_after)
            except ReproError as exc:
                status = getattr(exc, "status", None)
                if status is not None and status >= 500:
                    self.breaker.record_failure()
                    last_error = exc
                else:
                    self.breaker.record_reply()
                    raise  # a 4xx: retrying the same bad request is futile
            except urllib.error.URLError as exc:
                self.breaker.record_failure()
                last_error = ServiceError(
                    f"cannot reach {self.base_url}: {exc.reason}"
                )
                last_error.__cause__ = exc
            except Exception:
                self.breaker.record_failure()  # e.g. a read timeout
                raise
            else:
                self.breaker.record_success()
                return result

            attempt += 1
            if attempt > self.retries:
                raise last_error
            delay = self._delay(attempt, hint)
            if deadline_at is not None:
                # Clamp the sleep so the budget left after it can still
                # fund an attempt; if even a clamped sleep cannot leave
                # that much — or honoring the server's retry_after hint
                # would overrun the budget — fail now, before sleeping.
                sleep_budget = (
                    deadline_at - self._clock() - MIN_ATTEMPT_BUDGET
                )
                if sleep_budget <= 0 or (
                    hint is not None and hint > sleep_budget
                ):
                    raise DeadlineExceededError(
                        f"client deadline ({self.deadline}s) cannot cover "
                        f"another attempt after {attempt} attempt(s): "
                        f"{last_error}"
                    ) from last_error
                delay = min(delay, sleep_budget)
            if delay > 0:
                self._sleep(delay)

    # ------------------------------------------------------------------
    def search(
        self,
        text: str | None = None,
        *,
        token_ids: Sequence[int] | None = None,
        timeout: float | None = None,
        routing=None,
    ) -> dict:
        """Resilient :func:`remote_search`."""
        return self._call(
            lambda http_timeout: remote_search(
                self.base_url,
                text,
                token_ids=token_ids,
                timeout=timeout,
                routing=routing,
                http_timeout=http_timeout,
            )
        )

    def healthz(self) -> dict:
        """Resilient :func:`remote_healthz`."""
        return self._call(
            lambda http_timeout: remote_healthz(
                self.base_url, http_timeout=http_timeout
            )
        )

    def metrics(self) -> dict:
        """Resilient :func:`remote_metrics`."""
        return self._call(
            lambda http_timeout: remote_metrics(
                self.base_url, http_timeout=http_timeout
            )
        )

    def __repr__(self) -> str:
        return (
            f"ResilientClient({self.base_url!r}, retries={self.retries}, "
            f"deadline={self.deadline}, breaker={self.breaker.state})"
        )
